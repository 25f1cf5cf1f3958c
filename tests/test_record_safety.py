"""Persisted trial data is read without executing it.

A crafted ``SWEEP_*.journal`` entry or trial-cache file holding a
pickle whose ``__reduce__`` runs code must stay inert on every read
path: ``ResultStore.ingest_path``, ``POST /ingest``, ``SweepJournal``
resume, and the warm ``GET /solve`` cache read. The payload's side
effect is creating a sentinel file; no read may create it.
"""

import base64
import hashlib
import json
import pickle
import urllib.request

import pytest

from repro.runner import SweepJournal, TrialCache, sweep_from_experiments
from repro.runner.cache import CACHE_FORMAT, code_version_salt
from repro.runner.resilience import JOURNAL_FORMAT
from repro.serve import ReproService, ResultStore
from repro.serve.service import solve_spec


class _Exploit:
    """Unpickling this creates ``sentinel`` (a stand-in for any code)."""

    def __init__(self, sentinel):
        self.sentinel = str(sentinel)

    def __reduce__(self):
        return (open, (self.sentinel, "w"))


TRIAL = sweep_from_experiments(["E2"]).trials[0]


@pytest.fixture
def sentinel(tmp_path):
    return tmp_path / "pwned"


@pytest.fixture
def crafted_journal(tmp_path, sentinel):
    """A current-salt journal whose one entry is a base64 pickle of the
    exploit, with a correct checksum and the trial's real digest."""
    data = base64.b64encode(pickle.dumps(_Exploit(sentinel))).decode("ascii")
    header = {
        "format": JOURNAL_FORMAT, "kind": "sweep-journal", "sweep": "eseries",
        "num_trials": 1, "salt": code_version_salt(),
    }
    entry = {
        "digest": TRIAL.digest, "index": TRIAL.index,
        "label": TRIAL.label, "seconds": 0.1,
        "sha": hashlib.sha256(data.encode("ascii")).hexdigest()[:16],
        "data": data,
    }
    path = tmp_path / "SWEEP_eseries.journal"
    path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
    return path


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path / "RESULTS.db")
    service = ReproService(
        store, cache=TrialCache(tmp_path / "cache"), artifact_dir=tmp_path
    )
    server = service.start(port=0)
    yield service, f"http://127.0.0.1:{server.server_address[1]}"
    service.stop()
    store.close()


def test_store_ingest_does_not_unpickle(crafted_journal, sentinel):
    store = ResultStore(":memory:")
    result = store.ingest_path(crafted_journal)
    assert not sentinel.exists()
    assert result.kind == "journal"
    assert store.journals_for("eseries")[0]["entries"] == 0
    store.close()


def test_http_ingest_does_not_unpickle(crafted_journal, service, sentinel):
    _service, base = service
    request = urllib.request.Request(
        base + "/ingest", method="POST",
        data=json.dumps({"paths": [str(crafted_journal)]}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        assert response.status == 200
    assert not sentinel.exists()


def test_journal_resume_does_not_unpickle(crafted_journal, sentinel):
    journal = SweepJournal(crafted_journal, resume=True)
    assert journal.load_outcomes((TRIAL,)) == {}
    assert not sentinel.exists()


def test_solve_cache_read_does_not_unpickle(service, sentinel):
    service, base = service
    spec = solve_spec(family="path", n=8, problem="mis", algorithm="greedy")
    path = service.cache.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps({
        "format": CACHE_FORMAT, "label": spec.label, "seconds": 0.0,
        "payload": _Exploit(sentinel),
    }))
    query = "/solve?family=path&n=8&problem=mis&algorithm=greedy"
    with urllib.request.urlopen(base + query) as response:
        reply = json.loads(response.read())
    assert not sentinel.exists()
    # The crafted file read as a miss: the trial was computed afresh.
    assert reply["cached"] is False
    assert reply["rows"]
