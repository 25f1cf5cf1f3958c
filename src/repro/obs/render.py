"""Rendering for ``repro trace`` and ``repro stats``.

``repro trace`` reads a ``*.trace.jsonl`` stream (see
:mod:`repro.obs.spans` for the record contract) and renders a per-trial
timeline plus a slowest-span table; ``--check`` turns the structural
invariants (every line parses, every parent id resolves) into an exit
code for CI. ``repro stats`` reads ``SWEEP_*.json`` artifacts and
summarizes throughput, cache economics, and the retry taxonomy; with
``--bench`` it renders the committed ``BENCH_history.jsonl``
trajectory instead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any


def load_trace(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Parse a trace stream; returns ``(records, bad_line_count)``.

    Unparseable lines (torn tail from a killed run) are counted, not
    fatal — ``--check`` decides whether they fail the invocation.
    """
    records: list[dict[str, Any]] = []
    bad = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad += 1
                continue
            if not isinstance(record, dict) or "id" not in record:
                bad += 1
                continue
            records.append(record)
    return records, bad


def check_trace(records: list[dict[str, Any]], bad: int) -> list[str]:
    """Structural invariants for ``--check``; returns the violations.

    Every record needs an id/name/pid/t0/dur; every non-null parent must
    resolve to another record in the stream (the emitting process wrote
    its enclosing span on exit, fork workers inherit a parent whose span
    the parent process wrote).
    """
    problems: list[str] = []
    if bad:
        problems.append(f"{bad} unparseable line(s)")
    ids = {record["id"] for record in records}
    orphans = sum(
        1
        for record in records
        if record.get("parent") is not None and record["parent"] not in ids
    )
    if orphans:
        problems.append(f"{orphans} record(s) with unresolved parent ids")
    for field in ("name", "pid", "t0", "dur"):
        missing = sum(1 for record in records if field not in record)
        if missing:
            problems.append(f"{missing} record(s) missing {field!r}")
    negative = sum(1 for r in records if r.get("dur", 0) < 0)
    if negative:
        problems.append(f"{negative} record(s) with negative duration")
    return problems


def trial_records(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """The per-trial ``trial.result`` events, in trial-index order."""
    trials = [r for r in records if r.get("name") == "trial.result"]
    trials.sort(key=lambda r: r.get("attrs", {}).get("index", 0))
    return trials


def render_trace(
    path: str | Path,
    records: list[dict[str, Any]],
    bad: int,
    limit: int = 12,
) -> str:
    """The human-facing trace summary: header, timeline, slowest spans."""
    lines: list[str] = []
    pids = {record["pid"] for record in records if "pid" in record}
    t0s = [r["t0"] for r in records if "t0" in r]
    window = 0.0
    if t0s:
        ends = [
            r["t0"] + r.get("dur", 0.0) for r in records if "t0" in r
        ]
        window = max(ends) - min(t0s)
    lines.append(
        f"trace: {path} — {len(records)} record(s), {len(pids)} "
        f"process(es), {window:.2f}s window"
        + (f", {bad} unparseable line(s)" if bad else "")
    )

    trials = trial_records(records)
    if trials:
        lines.append("")
        lines.append(f"trial timeline ({len(trials)} trial(s)):")
        base = min(t0s) if t0s else 0.0
        for record in trials:
            attrs = record.get("attrs", {})
            if attrs.get("resumed"):
                note = "resumed"
            elif attrs.get("cached"):
                note = "cache hit"
            else:
                note = f"pid {attrs.get('worker', record.get('pid'))}"
            lines.append(
                f"  [{attrs.get('index', '?'):>3}] "
                f"+{record['t0'] - base:6.2f}s "
                f"{attrs.get('seconds', 0.0):7.3f}s  "
                f"{attrs.get('label', '?')}  ({note})"
            )

    by_name: dict[str, list[float]] = {}
    for record in records:
        if record.get("kind") == "span":
            by_name.setdefault(record["name"], []).append(
                record.get("dur", 0.0)
            )
    if by_name:
        rows = sorted(
            (
                (sum(durs), max(durs), len(durs), name)
                for name, durs in by_name.items()
            ),
            reverse=True,
        )
        lines.append("")
        lines.append("slowest spans (by total time):")
        lines.append(
            f"  {'span':<28} {'count':>6} {'total':>9} {'max':>9}"
        )
        for total, peak, count, name in rows[:limit]:
            lines.append(
                f"  {name:<28} {count:>6} {total:>8.3f}s {peak:>8.3f}s"
            )

    events = sorted(
        {
            r["name"]
            for r in records
            if r.get("kind") == "event" and r.get("name") != "trial.result"
        }
    )
    if events:
        lines.append("")
        lines.append(f"event kinds: {' '.join(events)}")
    return "\n".join(lines)


# -- repro stats --------------------------------------------------------------


def _retry_summary(observability: dict[str, Any]) -> str | None:
    retries = observability.get("retries") or {}
    retried = retries.get("trials_retried", 0)
    deaths = retries.get("worker_deaths", 0)
    if not retried and not deaths:
        return None
    return (
        f"{retried} trial(s) retried ({retries.get('timeouts', 0)} "
        f"timeout(s), {deaths} worker death(s), "
        f"{retries.get('attempts', 0)} extra attempt(s))"
    )


def render_stats(path: str | Path, payload: dict[str, Any]) -> str:
    """One artifact's throughput / cache / retry summary."""
    timing = payload.get("timing") or {}
    trials = timing.get("trials") or []
    wall = float(timing.get("wall_seconds") or 0.0)
    executed = [t for t in trials if not t.get("cached") and not t.get("resumed")]
    lines = [f"{path}:"]
    throughput = len(trials) / wall if wall > 0 else math.inf
    lines.append(
        f"  {len(trials)} trial(s) ({len(executed)} executed) in "
        f"{wall:.2f}s wall on {timing.get('workers', '?')} worker(s) — "
        f"{throughput:.1f} trials/s"
    )
    busy = float(timing.get("trial_seconds_total") or 0.0)
    if wall > 0 and busy:
        lines.append(
            f"  trial time {busy:.2f}s "
            f"(parallel speedup {busy / wall:.1f}x)"
        )
    cache = timing.get("cache")
    if cache:
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        total = hits + misses
        rate = f"{hits / total:.0%}" if total else "n/a"
        lines.append(
            f"  cache: {hits} hit(s), {misses} miss(es) ({rate} hit "
            f"rate), ~{cache.get('seconds_saved', 0.0):.2f}s saved"
        )
    observability = payload.get("observability") or {}
    retry_line = _retry_summary(observability)
    if retry_line:
        lines.append(f"  resilience: {retry_line}")
    if timing.get("pool_restarts"):
        lines.append(f"  pool restarts: {timing['pool_restarts']}")
    failures = payload.get("failures") or {}
    if failures.get("count"):
        lines.append(
            f"  failures: {failures['count']} "
            f"({failures.get('summary', '')})"
        )
    rss = observability.get("peak_rss_kib")
    if rss:
        lines.append(f"  peak rss: {rss / 1024:.0f} MiB")
    counters = observability.get("counters") or {}
    if counters:
        shown = ", ".join(
            f"{name}={counters[name]:,}" for name in sorted(counters)[:8]
        )
        lines.append(f"  counters: {shown}")
    return "\n".join(lines)


# -- repro stats --bench ------------------------------------------------------


def bench_row(line: str) -> dict[str, Any] | None:
    """One ``BENCH_history.jsonl`` row, or None for a blank, torn, or
    undated line — the one acceptance rule for the file and the store."""
    try:
        row = json.loads(line)
    except ValueError:
        return None
    return row if isinstance(row, dict) and "date" in row else None


def load_bench_history(path: str | Path) -> list[dict[str, Any]]:
    """Parse ``BENCH_history.jsonl`` rows (bad lines skipped, like a
    journal tail)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return [row for row in map(bench_row, handle) if row is not None]
    except OSError:
        return []


def render_bench_history(path: str | Path) -> str:
    """The benchmark trajectory: one line per recorded run."""
    return render_bench_rows(load_bench_history(path), path)


def render_bench_rows(rows: list[dict[str, Any]], source: str | Path) -> str:
    """Render already-loaded bench rows, labeled with their source.

    Shared by the file path (``repro stats --bench``) and the result
    store (``--store`` / ``GET /bench``): both must produce the
    identical trend rendering for the same rows.
    """
    if not rows:
        return f"{source}: no benchmark history rows"
    lines = [
        f"benchmark history: {source} — {len(rows)} run(s)",
        f"  {'date':<20} {'mode':<6} {'cases':>5} {'geomean':>9} "
        f"{'worst case':>10}",
    ]
    for row in rows:
        speedups = [
            float(s)
            for s in (row.get("speedups") or {}).values()
            if s and s > 0
        ]
        if speedups:
            geomean = math.exp(
                sum(math.log(s) for s in speedups) / len(speedups)
            )
            worst = min(speedups)
            summary = f"{geomean:>8.1f}x {worst:>9.1f}x"
        else:
            summary = f"{'n/a':>9} {'n/a':>10}"
        lines.append(
            f"  {row.get('date', '?'):<20} {row.get('mode', '?'):<6} "
            f"{len(speedups):>5} {summary}"
        )
    return "\n".join(lines)
