"""The ``repro serve`` HTTP API: results, provenance, and sweep submission.

A thin stdlib-only (`http.server`) threaded front end over three things
the repo already has:

- the scenario surface (:func:`repro.api.catalog`, the registries'
  validation errors — unknown axes come back as 400s listing the valid
  names, exactly the messages the CLI prints);
- the content-addressed trial cache (:mod:`repro.runner.cache`) — the
  warm-cache fast path behind ``GET /solve``, answering repeat queries
  in ~ms without touching a solver;
- the :class:`~repro.serve.store.ResultStore` — ingested sweep
  artifacts, journals, and bench history, plus the provenance DAG
  (:mod:`repro.serve.dag`).

Endpoints (all JSON; full table in ``docs/SERVICE.md``)::

    GET  /health                         liveness + store row counts
    GET  /catalog                        api.catalog()
    GET  /solve?family=&n=&problem=&algorithm=[&trial=&seed=&engine=]
    GET  /sweeps                         ingested sweeps
    GET  /sweeps/<digest>                one sweep (digest prefix or name)
    GET  /sweeps/<digest>/view           canonical deterministic-view bytes
    GET  /sweeps/<digest>/tables         table ids
    GET  /sweeps/<digest>/tables/<exp>   canonical table bytes
    GET  /sweeps/<digest>/dag            whole-sweep provenance DAG
    GET  /trials/<id-or-label>           one ingested trial
    GET  /provenance/<id-or-label>       scenario → trial → artifact chain
    GET  /bench                          latest ingested bench trend rows
    GET  /jobs  /jobs/<id>               submitted sweeps + status polling
    POST /sweeps                         submit an async grid sweep
    POST /ingest                         ingest artifact paths
    POST /shutdown                       stop serving cleanly

**The deterministic view is sacred**: ``…/view`` and ``…/tables/<exp>``
reply with the *stored canonical bytes* —
``json.dumps(slice, indent=2, ensure_ascii=False)`` of the ingested
artifact's corresponding slice, byte-identical to re-serializing the
file — never a reformatted copy.

``GET /solve`` is the serving hot path. The query is compiled to the
**exact** :class:`~repro.runner.specs.TrialSpec` a grid sweep would
build (:func:`~repro.runner.trials.grid_trial`: same kwargs order, same
content-addressed seed derivation), so its cache key matches entries
warmed by any previous sweep or report run. A warm hit answers from one
JSON record read (nothing in it is executed); a miss computes
in-process and warms the cache for next time — unless the service is
``readonly``, in which case misses are refused (409) and nothing is
ever written.

Sweep submission is async: ``POST /sweeps`` validates the grid into a
sweep spec and enqueues that spec for a single background worker
thread (one sweep at a time — ``run_sweep`` itself shards across
processes), returns a job id, and ``GET /jobs/<id>`` polls it. A
finished job's artifact is written to disk and auto-ingested, so its
tables are immediately queryable.

Every request is traced (``serve.request`` spans) and counted
(``serve.request``, ``serve.solve.hit`` / ``.miss`` counters) through
:mod:`repro.obs`; tracing never changes any served byte.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qsl, unquote, urlparse

from repro import api
from repro.obs import counters
from repro.obs.spans import span
from repro.runner.cache import DEFAULT_CACHE_DIR, TrialCache
from repro.runner.executor import run_sweep
from repro.runner.specs import SweepSpec
from repro.runner.trials import (
    aggregate_sweep,
    execute_trial,
    grid_trial,
    sweep_from_grid,
)
from repro.serve.dag import provenance, sweep_dag
from repro.serve.store import ResultStore, StoreError


class ServiceError(Exception):
    """An HTTP error response: ``raise ServiceError(400, "message")``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def solve_spec(
    family: str,
    n: int,
    problem: str,
    algorithm: str,
    trial: int = 0,
    seed: int = 0,
    engine: str | None = None,
):
    """The exact grid :class:`~repro.runner.specs.TrialSpec` of one query.

    Built by :func:`~repro.runner.trials.grid_trial`, the cell builder
    :func:`~repro.runner.trials.sweep_from_grid` uses, so the kwargs
    order, the content-addressed per-trial seed, and therefore the
    trial cache key match the spec any sweep of this scenario produces
    — the warm-cache contract — at a cost independent of ``trial``.
    Unknown names raise the grid's ``KeyError`` listing the valid
    registry names.
    """
    if trial < 0:
        raise ServiceError(400, f"trial must be >= 0, got {trial}")
    return grid_trial(family, n, problem, algorithm, trial, seed, engine or None)


class SweepJob:
    """One submitted sweep: request, validated spec, lifecycle state,
    and result."""

    def __init__(
        self, job_id: str, request: dict[str, Any], spec: SweepSpec
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.spec = spec
        self.status = "queued"
        self.submitted_at = time.time()
        self.error: str | None = None
        self.artifact_path: str | None = None
        self.artifact_digest: str | None = None
        self.wall_seconds: float | None = None

    def describe(self) -> dict[str, Any]:
        """JSON-able job status for ``GET /jobs/<id>``."""
        return {
            "job": self.job_id,
            "status": self.status,
            "request": self.request,
            "error": self.error,
            "artifact": self.artifact_path,
            "digest": self.artifact_digest,
            "num_trials": len(self.spec.trials),
            "wall_seconds": self.wall_seconds,
        }


class ReproService:
    """The service state shared by all request-handler threads.

    Args:
        store: the result store to serve (and auto-ingest into).
        cache: trial cache for ``/solve``; defaults to a
            :class:`~repro.runner.cache.TrialCache` under ``cache_dir``.
        cache_dir: cache directory when ``cache`` is not given.
        readonly: refuse every mutation — ``POST /sweeps`` and
            ``POST /ingest`` return 403, and ``/solve`` cache misses
            return 409 instead of computing (warm hits still serve).
        artifact_dir: where submitted sweeps write their
            ``SWEEP_*.json`` artifacts (default: the store's directory).
    """

    def __init__(
        self,
        store: ResultStore,
        cache: TrialCache | None = None,
        cache_dir: str | Path = DEFAULT_CACHE_DIR,
        readonly: bool = False,
        artifact_dir: str | Path | None = None,
    ) -> None:
        self.store = store
        self.cache = cache if cache is not None else TrialCache(cache_dir)
        self.readonly = readonly
        if artifact_dir is None:
            parent = Path(store.path).parent if store.path != ":memory:" else "."
            artifact_dir = parent
        self.artifact_dir = Path(artifact_dir)
        self._jobs: dict[str, SweepJob] = {}
        self._jobs_lock = threading.Lock()
        self._queue: queue.Queue[SweepJob | None] = queue.Queue()
        self._job_ids = itertools.count(1)
        self._worker: threading.Thread | None = None
        self._server: ThreadingHTTPServer | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self, port: int = 0, host: str = "127.0.0.1") -> ThreadingHTTPServer:
        """Bind, start the sweep worker, and serve on a daemon thread.

        ``port=0`` binds an ephemeral port; read the actual one from
        ``server.server_address[1]``.
        """
        handler = _make_handler(self)
        server = ThreadingHTTPServer((host, port), handler)
        server.daemon_threads = True
        self._server = server
        self._worker = threading.Thread(
            target=self._run_jobs, name="repro-serve-sweeps", daemon=True
        )
        self._worker.start()
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return server

    def stop(self) -> None:
        """Stop serving and drain the worker thread."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        self._queue.put(None)
        if self._worker is not None:
            self._worker.join(timeout=10)
            self._worker = None

    def _run_jobs(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._jobs_lock:
                job.status = "running"
            try:
                self._execute_job(job)
                with self._jobs_lock:
                    job.status = "completed"
            except Exception as exc:  # fail the job, keep the worker
                with self._jobs_lock:
                    job.status = "failed"
                    job.error = f"{type(exc).__name__}: {exc}"
                counters.add("serve.sweep.failed")

    def _execute_job(self, job: SweepJob) -> None:
        from repro.runner.artifacts import write_sweep_artifact

        request = job.request
        with span("serve.sweep", job=job.job_id, sweep=request["name"]):
            result = run_sweep(
                job.spec, workers=request["workers"], cache=self.cache
            )
            path = write_sweep_artifact(result, self.artifact_dir)
            ingested = self.store.ingest_path(path)
        with self._jobs_lock:
            job.artifact_path = str(path)
            job.artifact_digest = ingested.digest
            job.wall_seconds = result.wall_seconds
        counters.add("serve.sweep.completed")

    # -- GET routes ----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """``GET /health``."""
        return {
            "status": "ok",
            "readonly": self.readonly,
            "store": self.store.counts(),
        }

    def catalog(self) -> dict[str, Any]:
        """``GET /catalog`` — :func:`repro.api.catalog` verbatim."""
        return api.catalog()

    def solve(self, params: dict[str, str]) -> dict[str, Any]:
        """``GET /solve`` — the warm-cache fast path."""
        for required in ("family", "problem", "algorithm"):
            if required not in params:
                raise ServiceError(
                    400, f"missing required query parameter {required!r}"
                )
        try:
            spec = solve_spec(
                family=params["family"],
                n=_int_param(params, "n", 32),
                problem=params["problem"],
                algorithm=params["algorithm"],
                trial=_int_param(params, "trial", 0),
                seed=_int_param(params, "seed", 0),
                engine=params.get("engine") or None,
            )
        except KeyError as exc:
            # sweep_from_grid's registry errors list the valid names.
            raise ServiceError(400, str(exc.args[0])) from exc
        started = time.perf_counter()
        cached = self.cache.load(spec)
        if cached is not None:
            counters.add("serve.solve.hit")
            payload, seconds, was_cached = cached.payload, cached.seconds, True
        elif self.readonly:
            raise ServiceError(
                409,
                f"trial {spec.label!r} is not in the cache and the "
                f"service is readonly; run it via a sweep first",
            )
        else:
            counters.add("serve.solve.miss")
            with span("serve.solve.compute", label=spec.label):
                compute_started = time.perf_counter()
                payload = execute_trial(spec)
                seconds = time.perf_counter() - compute_started
            self.cache.store(spec, payload, seconds)
            was_cached = False
        table = aggregate_sweep((spec,), (payload,))["GRID"]
        return {
            "label": spec.label,
            "seed": spec.seed,
            "cache_key": self.cache.key(spec),
            "cached": was_cached,
            "compute_seconds": seconds,
            "elapsed_ms": (time.perf_counter() - started) * 1000.0,
            "headers": table.headers,
            "rows": table.rows,
        }

    def _resolve_digest(self, ref: str) -> str:
        digest = self.store.resolve_sweep(ref)
        if digest is None:
            known = [s["name"] for s in self.store.sweeps()]
            raise ServiceError(
                404,
                f"no ingested sweep matches {ref!r}; ingested sweeps: "
                f"{sorted(set(known))}",
            )
        return digest

    def sweeps(self) -> list[dict[str, Any]]:
        """``GET /sweeps`` — every ingested sweep's summary row."""
        return self.store.sweeps()

    def sweep_summary(self, ref: str) -> dict[str, Any]:
        """``GET /sweeps/<ref>``."""
        summary = self.store.sweep(self._resolve_digest(ref))
        assert summary is not None
        return summary

    def table(self, ref: str, exp_id: str) -> bytes:
        """``GET /sweeps/<ref>/tables/<exp_id>`` — canonical bytes."""
        digest = self._resolve_digest(ref)
        content = self.store.table_bytes(digest, exp_id)
        if content is None:
            raise ServiceError(
                404,
                f"sweep {digest[:12]} has no table {exp_id!r}; available: "
                f"{self.store.table_ids(digest)}",
            )
        return content

    def view(self, ref: str) -> bytes:
        """``GET /sweeps/<ref>/view`` — canonical deterministic view."""
        content = self.store.view_bytes(self._resolve_digest(ref))
        assert content is not None
        return content

    def trial(self, ref: str) -> dict[str, Any]:
        """``GET /trials/<ref>``."""
        trial = self.store.trial(ref)
        if trial is None:
            raise ServiceError(404, f"no ingested trial matches {ref!r}")
        return trial

    def trial_provenance(self, ref: str) -> dict[str, Any]:
        """``GET /provenance/<ref>``."""
        dag = provenance(self.store, ref)
        if dag is None:
            raise ServiceError(404, f"no ingested trial matches {ref!r}")
        return dag

    def sweep_provenance(self, ref: str) -> dict[str, Any]:
        """``GET /sweeps/<ref>/dag``."""
        dag = sweep_dag(self.store, self._resolve_digest(ref))
        assert dag is not None
        return dag

    def bench(self) -> dict[str, Any]:
        """``GET /bench`` — the latest ingested bench trend."""
        return {
            "source": self.store.bench_source(),
            "rows": self.store.bench_rows(),
        }

    def jobs(self) -> list[dict[str, Any]]:
        """``GET /jobs`` — every submitted job, newest last."""
        with self._jobs_lock:
            return [job.describe() for job in self._jobs.values()]

    def job(self, job_id: str) -> dict[str, Any]:
        """``GET /jobs/<id>``."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise ServiceError(
                    404,
                    f"no job {job_id!r}; known jobs: {sorted(self._jobs)}",
                )
            return job.describe()

    # -- POST routes ---------------------------------------------------------

    def submit_sweep(self, body: dict[str, Any]) -> dict[str, Any]:
        """``POST /sweeps`` — enqueue an async grid sweep."""
        if self.readonly:
            raise ServiceError(403, "service is readonly; sweeps refused")
        request = {
            "families": [str(f) for f in _list_field(body, "families", ["gnp"])],
            "sizes": [int(s) for s in _list_field(body, "sizes", [32])],
            "problems": [str(p) for p in _list_field(body, "problems", ["mis"])],
            "algorithms": [
                str(a) for a in _list_field(body, "algorithms", ["theorem1"])
            ],
            "engines": [str(e) for e in _list_field(body, "engines", [])],
            "trials": int(body.get("trials", 1)),
            "seed": int(body.get("seed", 0)),
            "workers": int(body.get("workers", 1)),
            "name": str(body.get("name", "served")),
        }
        try:
            # Validate the whole grid up front (the same registry errors
            # the CLI prints), so a bad submission 400s immediately
            # instead of failing later inside the worker.
            spec = sweep_from_grid(
                families=request["families"],
                sizes=request["sizes"],
                problems=request["problems"],
                algorithms=request["algorithms"],
                trials_per_config=request["trials"],
                master_seed=request["seed"],
                name=request["name"],
                engines=request["engines"],
            )
        except KeyError as exc:
            raise ServiceError(400, str(exc.args[0])) from exc
        with self._jobs_lock:
            job = SweepJob(f"job-{next(self._job_ids)}", request, spec)
            self._jobs[job.job_id] = job
        self._queue.put(job)
        counters.add("serve.sweep.submitted")
        return {
            "job": job.job_id,
            "status": job.status,
            "num_trials": len(spec.trials),
        }

    def ingest(self, body: dict[str, Any]) -> dict[str, Any]:
        """``POST /ingest`` — ingest artifact files by path."""
        if self.readonly:
            raise ServiceError(403, "service is readonly; ingest refused")
        paths = _list_field(body, "paths", None)
        if paths is None:
            raise ServiceError(400, "body must carry a 'paths' list")
        results = self.store.ingest_many([str(p) for p in paths])
        return {
            "results": [
                {
                    "path": r.path,
                    "status": r.status,
                    "kind": r.kind,
                    "digest": r.digest,
                    "detail": r.detail,
                }
                for r in results
            ]
        }


def _int_param(params: dict[str, str], name: str, default: int) -> int:
    raw = params.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ServiceError(
            400, f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None


def _list_field(body: dict[str, Any], name: str, default: Any) -> Any:
    value = body.get(name, default)
    if value is default:
        return default
    if not isinstance(value, list):
        raise ServiceError(400, f"field {name!r} must be a list")
    return value


def _make_handler(service: ReproService) -> type[BaseHTTPRequestHandler]:
    """A request-handler class closed over one service instance."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # Headers and body go out in two writes; with Nagle on, a
        # kept-alive client waits out its delayed ACK (~40 ms) on each.
        disable_nagle_algorithm = True

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass  # request logging goes through obs spans, not stderr

        # -- plumbing ----------------------------------------------------

        def _reply_json(self, status: int, value: Any) -> None:
            body = (
                json.dumps(value, indent=2, ensure_ascii=False) + "\n"
            ).encode("utf-8")
            self._reply_bytes(status, body)

        def _reply_bytes(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _read_body(self) -> dict[str, Any]:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                return {}
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise ServiceError(400, f"request body is not JSON: {exc}")
            if not isinstance(body, dict):
                raise ServiceError(400, "request body must be a JSON object")
            return body

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            # Unquote per segment, after splitting: %2F inside one
            # segment (e.g. a trial label) must not become a separator.
            parts = [unquote(p) for p in parsed.path.split("/") if p]
            counters.add("serve.request")
            try:
                with span("serve.request", method=method, path=parsed.path):
                    self._route(method, parts, dict(parse_qsl(parsed.query)))
            except ServiceError as exc:
                counters.add("serve.request.error")
                self._reply_json(exc.status, {"error": exc.message})
            except StoreError as exc:
                counters.add("serve.request.error")
                self._reply_json(403, {"error": str(exc)})
            except BrokenPipeError:
                pass  # client went away mid-reply
            except Exception as exc:  # one bad request must not kill serve
                counters.add("serve.request.error")
                self._reply_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )

        # -- routing -----------------------------------------------------

        def _route(
            self, method: str, parts: list[str], params: dict[str, str]
        ) -> None:
            if method == "GET":
                self._route_get(parts, params)
            else:
                self._route_post(parts)

        def _route_get(
            self, parts: list[str], params: dict[str, str]
        ) -> None:
            if parts == ["health"]:
                return self._reply_json(200, service.health())
            if parts == ["catalog"]:
                return self._reply_json(200, service.catalog())
            if parts == ["solve"]:
                return self._reply_json(200, service.solve(params))
            if parts == ["sweeps"]:
                return self._reply_json(200, {"sweeps": service.sweeps()})
            if len(parts) == 2 and parts[0] == "sweeps":
                return self._reply_json(200, service.sweep_summary(parts[1]))
            if len(parts) == 3 and parts[0] == "sweeps":
                if parts[2] == "view":
                    return self._reply_bytes(200, service.view(parts[1]))
                if parts[2] == "tables":
                    digest = service._resolve_digest(parts[1])
                    return self._reply_json(
                        200, {"tables": service.store.table_ids(digest)}
                    )
                if parts[2] == "dag":
                    return self._reply_json(
                        200, service.sweep_provenance(parts[1])
                    )
            if (
                len(parts) == 4
                and parts[0] == "sweeps"
                and parts[2] == "tables"
            ):
                return self._reply_bytes(
                    200, service.table(parts[1], parts[3])
                )
            if len(parts) == 2 and parts[0] == "trials":
                return self._reply_json(200, service.trial(parts[1]))
            if len(parts) == 2 and parts[0] == "provenance":
                return self._reply_json(
                    200, service.trial_provenance(parts[1])
                )
            if parts == ["bench"]:
                return self._reply_json(200, service.bench())
            if parts == ["jobs"]:
                return self._reply_json(200, {"jobs": service.jobs()})
            if len(parts) == 2 and parts[0] == "jobs":
                return self._reply_json(200, service.job(parts[1]))
            raise ServiceError(
                404,
                f"no route GET /{'/'.join(parts)}; see docs/SERVICE.md "
                f"for the endpoint table",
            )

        def _route_post(self, parts: list[str]) -> None:
            if parts == ["sweeps"]:
                return self._reply_json(
                    202, service.submit_sweep(self._read_body())
                )
            if parts == ["ingest"]:
                return self._reply_json(200, service.ingest(self._read_body()))
            if parts == ["shutdown"]:
                self._reply_json(200, {"status": "shutting down"})
                # shutdown() blocks until serve_forever returns, so it
                # must run off the handler thread.
                threading.Thread(target=service.stop, daemon=True).start()
                return None
            raise ServiceError(404, f"no route POST /{'/'.join(parts)}")

        def do_GET(self) -> None:  # noqa: N802 (http.server contract)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 (http.server contract)
            self._dispatch("POST")

    return Handler
