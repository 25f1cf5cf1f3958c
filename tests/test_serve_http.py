"""HTTP round-trip tests for the `repro serve` service.

One module-scoped service instance (ephemeral port, tmp store + cache)
backs all tests; the suite covers the ISSUE-10 acceptance criteria:
warm cached /solve in single-digit ms (generous CI-safe bound), served
tables byte-identical to the artifact's deterministic view, and
/provenance resolving the full scenario → trial → artifact chain.
"""

import http.client
import json
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro import api
from repro.runner import TrialCache, run_sweep, sweep_from_grid
from repro.runner.artifacts import write_sweep_artifact
from repro.serve import ReproService, ResultStore, canonical_json


class Client:
    """A tiny urllib client returning (status, parsed-or-raw body)."""

    def __init__(self, port):
        self.base = f"http://127.0.0.1:{port}"

    def get_raw(self, path):
        try:
            with urllib.request.urlopen(self.base + path) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as error:
            return error.code, error.read()

    def get(self, path):
        status, body = self.get_raw(path)
        return status, json.loads(body)

    def post(self, path, payload=None):
        data = json.dumps(payload or {}).encode()
        request = urllib.request.Request(
            self.base + path, data=data, method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running service over one ingested sweep + warmed trial cache."""
    tmp = tmp_path_factory.mktemp("serve-http")
    cache = TrialCache(tmp / "cache")
    spec = sweep_from_grid(
        families=("path",), sizes=(12, 16), problems=("mis",),
        algorithms=("greedy",), trials_per_config=2, master_seed=5,
        name="warmed",
    )
    result = run_sweep(spec, cache=cache)
    artifact = write_sweep_artifact(result, tmp)
    store = ResultStore(tmp / "RESULTS.db")
    ingest = store.ingest_path(artifact)
    service = ReproService(store, cache=cache, artifact_dir=tmp)
    server = service.start(port=0)
    client = Client(server.server_address[1])
    yield {
        "client": client,
        "artifact": artifact,
        "digest": ingest.digest,
        "store": store,
        "spec": spec,
    }
    service.stop()
    store.close()


class TestCatalog:
    def test_catalog_matches_api(self, served):
        status, catalog = served["client"].get("/catalog")
        assert status == 200
        expected = api.catalog()
        assert catalog["families"] == list(expected["families"])
        assert catalog["algorithms"] == list(expected["algorithms"])
        assert catalog["engines"] == list(expected["engines"])
        assert set(catalog["engine_matrix"]) == set(
            expected["engine_matrix"]
        )

    def test_health(self, served):
        status, health = served["client"].get("/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["store"]["sweeps"] == 1


class TestKeepAlive:
    def test_kept_alive_requests_do_not_stall(self, served):
        """Requests on one kept-alive connection answer as fast as fresh
        ones: the reply's header and body writes must not wait out the
        client's delayed ACK (Nagle), ~40 ms per request."""
        port = int(served["client"].base.rsplit(":", 1)[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        timings = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                conn.request("GET", "/health")
                response = conn.getresponse()
                response.read()
                timings.append((time.perf_counter() - started) * 1000.0)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(timings) < 20.0, timings


class TestSolve:
    QUERY = "/solve?family=path&n=12&problem=mis&algorithm=greedy&seed=5"

    def test_sweep_warmed_trial_hits_cache(self, served):
        """A /solve for a grid cell the sweep already ran is a warm hit:
        the query compiles to the same TrialSpec, hence the same
        content-addressed cache key."""
        status, solved = served["client"].get(self.QUERY + "&trial=1")
        assert status == 200
        assert solved["cached"] is True
        assert solved["label"] == "path/n=12/mis/greedy#1"
        assert solved["headers"][:4] == [
            "family", "n", "problem", "algorithm",
        ]
        assert len(solved["rows"]) == 1

    def test_warm_latency_bound(self, served):
        """Acceptance: warm cached query in single-digit ms. The bound
        here is deliberately generous for loaded CI machines; the
        server-side figure is the honest one."""
        served["client"].get(self.QUERY)  # ensure warm
        started = time.perf_counter()
        status, solved = served["client"].get(self.QUERY)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        assert status == 200
        assert solved["cached"] is True
        assert solved["elapsed_ms"] < 100.0
        assert elapsed_ms < 1000.0

    def test_cold_then_warm(self, served):
        cold_query = (
            "/solve?family=cycle&n=14&problem=mis&algorithm=greedy&seed=9"
        )
        status, first = served["client"].get(cold_query)
        assert status == 200
        assert first["cached"] is False
        status, second = served["client"].get(cold_query)
        assert second["cached"] is True
        assert second["rows"] == first["rows"]
        assert second["cache_key"] == first["cache_key"]

    def test_solve_result_matches_sweep_row(self, served):
        """The served row is byte-for-byte the row the sweep tabled."""
        status, solved = served["client"].get(self.QUERY + "&trial=0")
        artifact = json.loads(served["artifact"].read_text())
        grid = artifact["tables"]["GRID"]
        row = [str(cell) for cell in solved["rows"][0]]
        assert row in grid["rows"]

    def test_unknown_family_is_400_listing_names(self, served):
        status, body = served["client"].get(
            "/solve?family=nope&problem=mis&algorithm=greedy"
        )
        assert status == 400
        assert "unknown family" in body["error"]
        assert "'gnp'" in body["error"]  # valid names are listed

    def test_unknown_algorithm_is_400_listing_names(self, served):
        status, body = served["client"].get(
            "/solve?family=path&problem=mis&algorithm=nope"
        )
        assert status == 400
        assert "unknown algorithm" in body["error"]
        assert "'theorem1'" in body["error"]

    def test_missing_parameter_is_400(self, served):
        status, body = served["client"].get("/solve?family=path")
        assert status == 400
        assert "problem" in body["error"]

    def test_bad_integer_is_400(self, served):
        status, body = served["client"].get(
            "/solve?family=path&n=twelve&problem=mis&algorithm=greedy"
        )
        assert status == 400
        assert "integer" in body["error"]


class TestSweepQueries:
    def test_sweep_listing_and_summary(self, served):
        status, body = served["client"].get("/sweeps")
        assert status == 200
        assert [s["name"] for s in body["sweeps"]] == ["warmed"]
        status, summary = served["client"].get("/sweeps/warmed")
        assert summary["num_trials"] == 4
        assert [t["exp_id"] for t in summary["tables"]] == ["GRID"]

    def test_served_table_bytes_identical_to_artifact(self, served):
        """Acceptance: every served table is byte-identical to its
        source artifact's deterministic view."""
        artifact = json.loads(served["artifact"].read_text())
        for exp_id, table in artifact["tables"].items():
            status, body = served["client"].get_raw(
                f"/sweeps/{served['digest']}/tables/{exp_id}"
            )
            assert status == 200
            assert body == canonical_json(table).encode()

    def test_served_view_bytes_identical_to_artifact(self, served):
        from repro.runner.artifacts import deterministic_view

        artifact = json.loads(served["artifact"].read_text())
        status, body = served["client"].get_raw(
            f"/sweeps/{served['digest']}/view"
        )
        assert status == 200
        assert body == canonical_json(deterministic_view(artifact)).encode()

    def test_unknown_sweep_is_404_listing_names(self, served):
        status, body = served["client"].get("/sweeps/doesnotexist")
        assert status == 404
        assert "warmed" in body["error"]

    def test_unknown_table_is_404_listing_ids(self, served):
        status, body = served["client"].get(
            f"/sweeps/{served['digest']}/tables/E99"
        )
        assert status == 404
        assert "GRID" in body["error"]

    def test_unknown_route_is_404(self, served):
        status, body = served["client"].get("/nope/nope")
        assert status == 404
        assert "no route" in body["error"]


class TestProvenance:
    def test_trial_and_provenance_chain(self, served):
        """Acceptance: /provenance/<trial> resolves the full scenario →
        trial → artifact chain for any ingested sweep."""
        trials = served["store"].trials_of(served["digest"])
        for trial in trials:
            status, dag = served["client"].get(
                f"/provenance/{trial['trial_id']}"
            )
            assert status == 200
            kinds = {n["kind"] for n in dag["nodes"]}
            assert {"scenario", "trial", "artifact"} <= kinds
            artifact_node = next(
                n for n in dag["nodes"] if n["kind"] == "artifact"
            )
            assert artifact_node["digest"] == served["digest"]

    def test_trial_lookup_by_label(self, served):
        status, trial = served["client"].get(
            "/trials/path%2Fn%3D12%2Fmis%2Fgreedy%230"
        )
        assert status == 200
        assert trial["scenario"]["n"] == 12

    def test_sweep_dag(self, served):
        status, dag = served["client"].get(
            f"/sweeps/{served['digest']}/dag"
        )
        assert status == 200
        assert len([n for n in dag["nodes"] if n["kind"] == "trial"]) == 4

    def test_unknown_trial_is_404(self, served):
        status, body = served["client"].get("/provenance/unknown")
        assert status == 404


class TestSweepSubmission:
    def test_submit_poll_fetch_round_trip(self, served, tmp_path):
        client = served["client"]
        status, submitted = client.post("/sweeps", {
            "families": ["path"], "sizes": [10], "problems": ["mis"],
            "algorithms": ["greedy"], "trials": 1, "seed": 11,
            "name": "submitted",
        })
        assert status == 202
        assert submitted["num_trials"] == 1
        job_id = submitted["job"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, job = client.get(f"/jobs/{job_id}")
            if job["status"] in ("completed", "failed"):
                break
            time.sleep(0.05)
        assert job["status"] == "completed", job
        assert job["digest"]
        # The completed sweep's table is served byte-identically to the
        # artifact the job wrote.
        artifact = json.loads(
            open(job["artifact"], encoding="utf-8").read()
        )
        status, body = client.get_raw(
            f"/sweeps/{job['digest']}/tables/GRID"
        )
        assert status == 200
        assert body == canonical_json(artifact["tables"]["GRID"]).encode()

    def test_submit_unknown_axis_is_400_listing_names(self, served):
        status, body = served["client"].post("/sweeps", {
            "families": ["not-a-family"],
        })
        assert status == 400
        assert "unknown family" in body["error"]
        assert "'path'" in body["error"]

    def test_unknown_job_is_404(self, served):
        status, body = served["client"].get("/jobs/job-999")
        assert status == 404

    def test_jobs_listing(self, served):
        status, body = served["client"].get("/jobs")
        assert status == 200
        assert isinstance(body["jobs"], list)

    def test_ingest_endpoint(self, served, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("}{")
        status, body = served["client"].post(
            "/ingest", {"paths": [str(bad)]}
        )
        assert status == 200
        assert body["results"][0]["status"] == "skipped"


class TestReadonly:
    @pytest.fixture(scope="class")
    def readonly(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve-ro")
        cache = TrialCache(tmp / "cache")
        result = api.run_grid(
            families=("path",), sizes=(10,), problems=("mis",),
            algorithms=("greedy",), trials=1, seed=2, cache=cache,
            name="frozen",
        )
        artifact = write_sweep_artifact(result, tmp)
        store = ResultStore(tmp / "RESULTS.db")
        store.ingest_path(artifact)
        store.close()
        ro_store = ResultStore(tmp / "RESULTS.db", readonly=True)
        service = ReproService(ro_store, cache=cache, readonly=True)
        server = service.start(port=0)
        yield Client(server.server_address[1])
        service.stop()
        ro_store.close()

    def test_warm_hits_still_serve(self, readonly):
        status, solved = readonly.get(
            "/solve?family=path&n=10&problem=mis&algorithm=greedy&seed=2"
        )
        assert status == 200
        assert solved["cached"] is True

    def test_cold_miss_is_409(self, readonly):
        status, body = readonly.get(
            "/solve?family=path&n=11&problem=mis&algorithm=greedy"
        )
        assert status == 409
        assert "readonly" in body["error"]

    def test_sweep_submit_is_403(self, readonly):
        status, body = readonly.post("/sweeps", {})
        assert status == 403

    def test_ingest_is_403(self, readonly):
        status, body = readonly.post("/ingest", {"paths": []})
        assert status == 403
