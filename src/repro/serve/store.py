"""The sqlite-indexed result store behind ``repro serve`` / ``repro ingest``.

Every number this repo produces already lives in a flat file —
``SWEEP_*.json`` artifacts, ``SWEEP_*.journal`` checkpoints,
``BENCH_history.jsonl`` trend rows. :class:`ResultStore` ingests those
files into queryable sqlite tables keyed by **content-addressed
digests** (SHA-256 of the bytes for files; for trials, the
:attr:`~repro.runner.specs.TrialSpec.digest` the artifact records — the
identity the trial cache and the journal key on), so a number served
over HTTP is traceable back to the exact artifact — and through it, the
exact scenario and seed — that produced it. A solve trial's scenario is
the kwargs the artifact records for it; nothing is parsed out of a
label.

Two invariants, both inherited from the runner subsystem:

- **The deterministic view is sacred.** Tables are stored as the
  *canonical serialization* (:func:`canonical_json` — exactly the
  ``json.dumps`` options :func:`repro.runner.artifacts.write_sweep_artifact`
  uses), so any table served from the store is byte-identical to
  re-serializing the same slice of the on-disk artifact. Nothing is
  reformatted, rounded, or re-aggregated on the way out.
- **Ingest is idempotent and fail-open.** A file whose digest is
  already indexed is a no-op (``already-ingested``), never a duplicate
  row; a corrupt or truncated file is skipped with a warning
  (``skipped``), never an error — the same convention as the trial
  cache's corrupt-record handling.

The store is safe for multi-threaded readers/writers within one
process (one connection, one lock — the HTTP service's threading
model); cross-process writers should each use their own store path.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.obs import counters
from repro.obs.render import bench_row

#: Bump when the sqlite schema changes shape; old stores are then
#: refused with a clear error (re-ingest into a fresh store).
SCHEMA_VERSION = 1

#: Artifact kinds the ingester recognizes.
KIND_SWEEP = "sweep"
KIND_BENCH = "bench-history"
KIND_JOURNAL = "journal"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS artifacts (
    digest TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    path TEXT NOT NULL,
    ingested_at REAL NOT NULL,
    size_bytes INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    artifact_digest TEXT PRIMARY KEY REFERENCES artifacts(digest),
    name TEXT NOT NULL,
    master_seed INTEGER,
    num_trials INTEGER NOT NULL,
    partial INTEGER NOT NULL,
    workers INTEGER,
    wall_seconds REAL,
    view TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    trial_id TEXT NOT NULL,
    artifact_digest TEXT NOT NULL REFERENCES artifacts(digest),
    idx INTEGER NOT NULL,
    kind TEXT NOT NULL,
    key TEXT NOT NULL,
    label TEXT NOT NULL,
    seed INTEGER,
    seconds REAL,
    worker INTEGER,
    cached INTEGER,
    resumed INTEGER,
    scenario TEXT,
    PRIMARY KEY (artifact_digest, idx)
);
CREATE INDEX IF NOT EXISTS trials_by_id ON trials(trial_id);
CREATE INDEX IF NOT EXISTS trials_by_label ON trials(label);
CREATE TABLE IF NOT EXISTS sweep_tables (
    artifact_digest TEXT NOT NULL REFERENCES artifacts(digest),
    exp_id TEXT NOT NULL,
    title TEXT,
    content TEXT NOT NULL,
    PRIMARY KEY (artifact_digest, exp_id)
);
CREATE TABLE IF NOT EXISTS bench_rows (
    artifact_digest TEXT NOT NULL REFERENCES artifacts(digest),
    line_no INTEGER NOT NULL,
    date TEXT,
    mode TEXT,
    content TEXT NOT NULL,
    PRIMARY KEY (artifact_digest, line_no)
);
CREATE TABLE IF NOT EXISTS journals (
    artifact_digest TEXT PRIMARY KEY REFERENCES artifacts(digest),
    sweep_name TEXT NOT NULL,
    salt TEXT,
    num_trials INTEGER,
    entries INTEGER NOT NULL
);
"""


class StoreError(RuntimeError):
    """The store refused an operation (readonly, schema mismatch, …)."""


def canonical_json(value: Any) -> str:
    """The store's one serialization of JSON values.

    Exactly the options :func:`repro.runner.artifacts.write_sweep_artifact`
    writes artifacts with, so a slice re-serialized here is
    byte-identical to the same slice re-serialized from the file.
    """
    return json.dumps(value, indent=2, ensure_ascii=False)


def file_digest(data: bytes) -> str:
    """Content address of an ingested file: SHA-256 of its bytes."""
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`ResultStore.ingest_path` call did.

    ``status`` is ``"ingested"`` (new rows), ``"already-ingested"``
    (same digest seen before — a no-op), or ``"skipped"`` (corrupt,
    truncated, or unrecognized file — fail-open with ``detail``).
    """

    path: str
    status: str
    kind: str | None = None
    digest: str | None = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        """True unless the file was skipped."""
        return self.status != "skipped"

    def render(self) -> str:
        """The one-line message ``repro ingest`` prints per file."""
        short = (self.digest or "")[:12]
        if self.status == "ingested":
            return f"ingested {self.kind} {short} {self.path} ({self.detail})"
        if self.status == "already-ingested":
            return f"already ingested {short} {self.path} (no-op)"
        return f"warning: skipped {self.path} ({self.detail})"


class ResultStore:
    """The sqlite-indexed store of ingested results.

    Args:
        path: sqlite database path (created on first write), or
            ``":memory:"`` for an ephemeral store.
        readonly: refuse every write (ingest raises
            :class:`StoreError`); the database file must already exist.
    """

    def __init__(self, path: str | Path = "RESULTS.db",
                 readonly: bool = False) -> None:
        self.path = str(path)
        self.readonly = readonly
        self._lock = threading.Lock()
        if readonly and self.path != ":memory:" and not Path(self.path).exists():
            raise StoreError(f"readonly store {self.path!r} does not exist")
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        self._db.row_factory = sqlite3.Row
        with self._lock:
            try:
                if not readonly:
                    self._db.executescript(_SCHEMA)
                    self._db.execute(
                        "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                        ("schema_version", str(SCHEMA_VERSION)),
                    )
                    self._db.commit()
                row = self._db.execute(
                    "SELECT value FROM meta WHERE key = 'schema_version'"
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                raise StoreError(f"{self.path!r} is not a result store") from exc
        if row is None or row["value"] != str(SCHEMA_VERSION):
            raise StoreError(
                f"store {self.path!r} has schema version "
                f"{row and row['value']}, this code expects {SCHEMA_VERSION}; "
                f"re-ingest into a fresh store"
            )

    def close(self) -> None:
        """Close the underlying sqlite connection."""
        with self._lock:
            self._db.close()

    # -- ingest --------------------------------------------------------------

    def ingest_path(self, path: str | Path) -> IngestResult:
        """Index one artifact file; idempotent and fail-open.

        Recognizes ``SWEEP_*.json`` sweep artifacts, append-only
        ``SWEEP_*.journal`` checkpoints, and ``BENCH_history.jsonl``
        trend files by *content*, not by name. Unrecognized or corrupt
        content is skipped with a warning detail, matching the trial
        cache's fail-open read convention.
        """
        if self.readonly:
            raise StoreError("store is readonly; ingest refused")
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            return IngestResult(
                path=str(path), status="skipped", detail=f"unreadable: {exc}"
            )
        digest = file_digest(data)
        with self._lock:
            known = self._db.execute(
                "SELECT kind FROM artifacts WHERE digest = ?", (digest,)
            ).fetchone()
        if known is not None:
            counters.add("serve.ingest.noop")
            return IngestResult(
                path=str(path), status="already-ingested",
                kind=known["kind"], digest=digest,
            )
        result = self._classify_and_ingest(path, data, digest)
        if result.status == "ingested":
            counters.add("serve.ingest")
        else:
            counters.add("serve.ingest.skipped")
        return result

    def ingest_many(self, paths: Iterable[str | Path]) -> list[IngestResult]:
        """:meth:`ingest_path` over many files, in order."""
        return [self.ingest_path(p) for p in paths]

    def _classify_and_ingest(
        self, path: Path, data: bytes, digest: str
    ) -> IngestResult:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            return IngestResult(
                path=str(path), status="skipped", detail="not utf-8 text"
            )
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if isinstance(payload, dict) and "sweep" in payload and "tables" in payload:
            return self._ingest_sweep(path, payload, digest, len(data))
        # Line-oriented formats: journal (typed header) or bench history.
        from repro.runner.resilience import read_journal

        lines = text.splitlines()
        journal = read_journal(lines)
        if journal is not None:
            return self._ingest_journal(path, *journal, digest, len(data))
        if any(bench_row(line) is not None for line in lines):
            return self._ingest_bench(path, lines, digest, len(data))
        if isinstance(payload, dict):
            detail = "json without sweep/tables keys"
        elif payload is not None:
            detail = "json is not an artifact object"
        else:
            detail = "unrecognized or truncated content"
        return IngestResult(path=str(path), status="skipped", detail=detail)

    def _register_artifact(
        self, digest: str, kind: str, name: str, path: Path, size: int
    ) -> None:
        self._db.execute(
            "INSERT INTO artifacts (digest, kind, name, path, ingested_at, "
            "size_bytes) VALUES (?, ?, ?, ?, ?, ?)",
            (digest, kind, name, str(path), time.time(), size),
        )

    def _ingest_sweep(
        self, path: Path, payload: dict[str, Any], digest: str, size: int
    ) -> IngestResult:
        from repro.runner.artifacts import deterministic_view

        sweep = payload.get("sweep") or {}
        tables = payload.get("tables") or {}
        trials = sweep.get("trials")
        if not isinstance(trials, list) or not isinstance(tables, dict):
            return IngestResult(
                path=str(path), status="skipped",
                detail="artifact missing trials/tables lists",
            )
        if not all(
            isinstance(t, dict) and isinstance(t.get("digest"), str)
            for t in trials
        ):
            return IngestResult(
                path=str(path), status="skipped",
                detail="artifact trials carry no digest",
            )
        timing = payload.get("timing") or {}
        timing_by_label = {
            t.get("label"): t for t in (timing.get("trials") or [])
            if isinstance(t, dict)
        }
        name = str(sweep.get("name", path.stem))
        with self._lock:
            self._register_artifact(digest, KIND_SWEEP, name, path, size)
            self._db.execute(
                "INSERT INTO sweeps (artifact_digest, name, master_seed, "
                "num_trials, partial, workers, wall_seconds, view) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    digest, name, sweep.get("master_seed"),
                    int(sweep.get("num_trials", len(trials))),
                    int(bool(payload.get("partial"))),
                    timing.get("workers"), timing.get("wall_seconds"),
                    canonical_json(deterministic_view(payload)),
                ),
            )
            for trial in trials:
                label = str(trial.get("label", ""))
                provenance = timing_by_label.get(label) or {}
                scenario = None
                if trial.get("kind") == "solve" and isinstance(
                    trial.get("kwargs"), dict
                ):
                    scenario = json.dumps(trial["kwargs"])
                self._db.execute(
                    "INSERT OR REPLACE INTO trials (trial_id, "
                    "artifact_digest, idx, kind, key, label, seed, seconds, "
                    "worker, cached, resumed, scenario) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        trial["digest"], digest, int(trial.get("index", 0)),
                        str(trial.get("kind", "")), str(trial.get("key", "")),
                        label, trial.get("seed"), provenance.get("seconds"),
                        provenance.get("worker"),
                        int(bool(provenance.get("cached"))),
                        int(bool(provenance.get("resumed"))),
                        scenario,
                    ),
                )
            for exp_id, table in tables.items():
                title = table.get("title") if isinstance(table, dict) else None
                self._db.execute(
                    "INSERT INTO sweep_tables (artifact_digest, exp_id, "
                    "title, content) VALUES (?, ?, ?, ?)",
                    (digest, str(exp_id), title, canonical_json(table)),
                )
            self._db.commit()
        return IngestResult(
            path=str(path), status="ingested", kind=KIND_SWEEP, digest=digest,
            detail=f"{len(trials)} trial(s), {len(tables)} table(s)",
        )

    def _ingest_journal(
        self, path: Path, header: dict[str, Any], records: list[Any],
        digest: str, size: int,
    ) -> IngestResult:
        entries = len(records)  # the valid prefix: a corrupt tail fails open
        name = str(header.get("sweep", path.stem))
        with self._lock:
            self._register_artifact(digest, KIND_JOURNAL, name, path, size)
            self._db.execute(
                "INSERT INTO journals (artifact_digest, sweep_name, salt, "
                "num_trials, entries) VALUES (?, ?, ?, ?, ?)",
                (digest, name, header.get("salt"),
                 header.get("num_trials"), entries),
            )
            self._db.commit()
        return IngestResult(
            path=str(path), status="ingested", kind=KIND_JOURNAL,
            digest=digest, detail=f"{entries} checkpointed trial(s)",
        )

    def _ingest_bench(
        self, path: Path, lines: list[str], digest: str, size: int
    ) -> IngestResult:
        rows = [row for row in map(bench_row, lines) if row is not None]
        with self._lock:
            self._register_artifact(
                digest, KIND_BENCH, path.name, path, size
            )
            for line_no, row in enumerate(rows):
                self._db.execute(
                    "INSERT INTO bench_rows (artifact_digest, line_no, date, "
                    "mode, content) VALUES (?, ?, ?, ?, ?)",
                    (digest, line_no, row.get("date"), row.get("mode"),
                     json.dumps(row, sort_keys=True)),
                )
            self._db.commit()
        return IngestResult(
            path=str(path), status="ingested", kind=KIND_BENCH, digest=digest,
            detail=f"{len(rows)} bench row(s)",
        )

    # -- queries -------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Row counts per table — the service's health summary."""
        out: dict[str, int] = {}
        with self._lock:
            for table in ("artifacts", "sweeps", "trials", "sweep_tables",
                          "bench_rows", "journals"):
                out[table] = self._db.execute(
                    f"SELECT COUNT(*) AS c FROM {table}"  # noqa: S608
                ).fetchone()["c"]
        return out

    def artifacts(self) -> list[dict[str, Any]]:
        """Every ingested artifact, in ingest order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT digest, kind, name, path, size_bytes FROM artifacts "
                "ORDER BY ingested_at, digest"
            ).fetchall()
        return [dict(row) for row in rows]

    def sweeps(self) -> list[dict[str, Any]]:
        """Every ingested sweep artifact's summary, in ingest order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT s.artifact_digest, s.name, s.master_seed, "
                "s.num_trials, s.partial, s.workers, s.wall_seconds, a.path "
                "FROM sweeps s JOIN artifacts a ON a.digest = "
                "s.artifact_digest ORDER BY a.ingested_at, s.artifact_digest"
            ).fetchall()
        return [dict(row) for row in rows]

    def resolve_sweep(self, ref: str) -> str | None:
        """A sweep artifact digest from a digest prefix or sweep name.

        Names resolve to the most recently ingested sweep of that name;
        ambiguous digest prefixes resolve to ``None``.
        """
        with self._lock:
            rows = self._db.execute(
                "SELECT artifact_digest FROM sweeps WHERE artifact_digest "
                "LIKE ?", (ref + "%",)
            ).fetchall()
            if len(rows) == 1:
                return rows[0]["artifact_digest"]
            if len(rows) > 1:
                return None
            row = self._db.execute(
                "SELECT s.artifact_digest FROM sweeps s JOIN artifacts a "
                "ON a.digest = s.artifact_digest WHERE s.name = ? "
                "ORDER BY a.ingested_at DESC LIMIT 1", (ref,)
            ).fetchone()
        return row["artifact_digest"] if row else None

    def sweep(self, digest: str) -> dict[str, Any] | None:
        """One ingested sweep's summary plus its table ids."""
        with self._lock:
            row = self._db.execute(
                "SELECT s.*, a.path FROM sweeps s JOIN artifacts a ON "
                "a.digest = s.artifact_digest WHERE s.artifact_digest = ?",
                (digest,),
            ).fetchone()
            if row is None:
                return None
            tables = self._db.execute(
                "SELECT exp_id, title FROM sweep_tables WHERE "
                "artifact_digest = ? ORDER BY exp_id", (digest,)
            ).fetchall()
        summary = {k: row[k] for k in row.keys() if k != "view"}
        summary["tables"] = [dict(t) for t in tables]
        return summary

    def view_bytes(self, digest: str) -> bytes | None:
        """The canonical deterministic view ({"sweep", "tables"}) bytes."""
        with self._lock:
            row = self._db.execute(
                "SELECT view FROM sweeps WHERE artifact_digest = ?", (digest,)
            ).fetchone()
        return row["view"].encode("utf-8") if row else None

    def table_ids(self, digest: str) -> list[str]:
        """The experiment ids of one sweep's stored tables."""
        with self._lock:
            rows = self._db.execute(
                "SELECT exp_id FROM sweep_tables WHERE artifact_digest = ? "
                "ORDER BY exp_id", (digest,)
            ).fetchall()
        return [row["exp_id"] for row in rows]

    def table_bytes(self, digest: str, exp_id: str) -> bytes | None:
        """One table's canonical bytes (the byte-identity contract)."""
        with self._lock:
            row = self._db.execute(
                "SELECT content FROM sweep_tables WHERE artifact_digest = ? "
                "AND exp_id = ?", (digest, exp_id)
            ).fetchone()
        return row["content"].encode("utf-8") if row else None

    def trials_of(self, digest: str) -> list[dict[str, Any]]:
        """One sweep's ingested trial rows, in spec order."""
        with self._lock:
            rows = self._db.execute(
                "SELECT * FROM trials WHERE artifact_digest = ? ORDER BY idx",
                (digest,),
            ).fetchall()
        return [self._trial_dict(row) for row in rows]

    def trial(self, ref: str) -> dict[str, Any] | None:
        """One trial by id (or unique label), newest artifact first."""
        with self._lock:
            row = self._db.execute(
                "SELECT t.* FROM trials t JOIN artifacts a ON a.digest = "
                "t.artifact_digest WHERE t.trial_id = ? OR t.label = ? "
                "ORDER BY a.ingested_at DESC LIMIT 1", (ref, ref)
            ).fetchone()
        return None if row is None else self._trial_dict(row)

    @staticmethod
    def _trial_dict(row: sqlite3.Row) -> dict[str, Any]:
        trial = dict(row)
        scenario = trial.pop("scenario", None)
        trial["scenario"] = json.loads(scenario) if scenario else None
        trial["cached"] = bool(trial.get("cached"))
        trial["resumed"] = bool(trial.get("resumed"))
        return trial

    def journals_for(self, sweep_name: str) -> list[dict[str, Any]]:
        """Ingested journals checkpointing sweeps of this name."""
        with self._lock:
            rows = self._db.execute(
                "SELECT * FROM journals WHERE sweep_name = ? "
                "ORDER BY artifact_digest", (sweep_name,)
            ).fetchall()
        return [dict(row) for row in rows]

    def bench_source(self) -> dict[str, Any] | None:
        """The most recently ingested bench-history artifact."""
        with self._lock:
            row = self._db.execute(
                "SELECT digest, path FROM artifacts WHERE kind = ? "
                "ORDER BY ingested_at DESC, digest LIMIT 1", (KIND_BENCH,)
            ).fetchone()
        return dict(row) if row else None

    def bench_rows(self) -> list[dict[str, Any]]:
        """Trend rows of the latest ingested bench history, file order.

        Row for row what :func:`repro.obs.render.load_bench_history`
        parses from the file, so the store-backed ``repro stats --bench
        --store`` renders the identical trajectory.
        """
        source = self.bench_source()
        if source is None:
            return []
        with self._lock:
            rows = self._db.execute(
                "SELECT content FROM bench_rows WHERE artifact_digest = ? "
                "ORDER BY line_no", (source["digest"],)
            ).fetchall()
        return [json.loads(row["content"]) for row in rows]
