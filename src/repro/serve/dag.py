"""Provenance DAG over the result store: scenario → trial → artifact → output.

Every number the service hands out is an edge away from the exact
inputs that produced it. :func:`provenance` reconstructs that chain for
one trial from the ingested tables alone — no re-reading the original
files — and renders it as plain JSON:

- ``scenario`` nodes: a solve trial's scenario, exactly the kwargs the
  artifact records for it (family, n, problem, algorithm, the derived
  seed, and engine/fault parameters when present);
- ``trial`` nodes: the ingested trial row (index, kind, key, label,
  seconds, worker, cached/resumed flags), identified by the trial's
  digest;
- ``artifact`` nodes: the content-addressed file the trial was ingested
  from (digest, path, kind), plus any journals that checkpointed the
  same sweep;
- ``output`` nodes: the sweep's report tables and, for bench-history
  artifacts, trend rows.

Edges always point from producer to product (``scenario → trial →
artifact → output``), so walking forward answers "what did this
scenario produce" and walking the reversed edges answers "where did
this table's numbers come from".
"""

from __future__ import annotations

from typing import Any

from repro.serve.store import ResultStore


class _Dag:
    """Nodes and edges under construction; a node id is added once."""

    def __init__(self) -> None:
        self.nodes: list[dict[str, Any]] = []
        self.edges: list[dict[str, str]] = []
        self._seen: set[str] = set()

    def node(self, node_id: str, kind: str, **attrs: Any) -> str:
        if node_id not in self._seen:
            self._seen.add(node_id)
            self.nodes.append({"id": node_id, "kind": kind, **attrs})
        return node_id

    def edge(self, src: str, dst: str) -> None:
        self.edges.append({"from": src, "to": dst})

    def rooted(self, root: str) -> dict[str, Any]:
        return {"root": root, "nodes": self.nodes, "edges": self.edges}


def _add_trial(dag: _Dag, trial: dict[str, Any]) -> str:
    """A trial node, fed by its scenario node when it has one."""
    trial_id = dag.node(
        trial["trial_id"], "trial",
        index=trial["idx"], kind_of_trial=trial["kind"], key=trial["key"],
        label=trial["label"], seed=trial["seed"], seconds=trial["seconds"],
        worker=trial["worker"], cached=trial["cached"],
        resumed=trial["resumed"],
    )
    if trial["scenario"] is not None:
        scenario_id = dag.node(
            f"scenario:{trial_id}", "scenario", **trial["scenario"]
        )
        dag.edge(scenario_id, trial_id)
    return trial_id


def _add_artifact(dag: _Dag, sweep: dict[str, Any]) -> str:
    digest = sweep["artifact_digest"]
    return dag.node(
        f"artifact:{digest}", "artifact", digest=digest, path=sweep["path"],
        sweep=sweep["name"], master_seed=sweep["master_seed"],
        num_trials=sweep["num_trials"], partial=bool(sweep["partial"]),
    )


def _add_journals_and_tables(
    dag: _Dag, store: ResultStore, sweep: dict[str, Any], artifact_id: str
) -> None:
    """The journals checkpointing the sweep and its output tables."""
    for journal in store.journals_for(sweep["name"]):
        journal_id = dag.node(
            f"artifact:{journal['artifact_digest']}", "artifact",
            digest=journal["artifact_digest"],
            journal_of=journal["sweep_name"], entries=journal["entries"],
            salt=journal["salt"],
        )
        dag.edge(journal_id, artifact_id)
    for table in sweep["tables"]:
        table_id = dag.node(
            f"table:{sweep['artifact_digest']}:{table['exp_id']}", "output",
            exp_id=table["exp_id"], title=table["title"],
        )
        dag.edge(artifact_id, table_id)


def provenance(store: ResultStore, trial_ref: str) -> dict[str, Any] | None:
    """The full provenance chain of one ingested trial, as a JSON DAG.

    Args:
        store: the result store to resolve against.
        trial_ref: a trial id (the trial's recorded
            :attr:`~repro.runner.specs.TrialSpec.digest`) or an exact
            trial label.

    Returns:
        ``{"root": trial_id, "nodes": [...], "edges": [...]}`` with
        nodes/edges as described in the module docstring, or ``None``
        when the trial is unknown.
    """
    trial = store.trial(trial_ref)
    if trial is None:
        return None
    # Trials are ingested together with their sweep row.
    sweep = store.sweep(trial["artifact_digest"])
    dag = _Dag()
    trial_id = _add_trial(dag, trial)
    artifact_id = _add_artifact(dag, sweep)
    dag.edge(trial_id, artifact_id)
    _add_journals_and_tables(dag, store, sweep, artifact_id)
    return dag.rooted(trial_id)


def sweep_dag(store: ResultStore, digest: str) -> dict[str, Any] | None:
    """The provenance DAG of one whole ingested sweep artifact.

    Same node/edge vocabulary as :func:`provenance`, rooted at the
    artifact: every trial's scenario chain plus every output table, in
    one graph. Returns ``None`` for an unknown digest.
    """
    sweep = store.sweep(digest)
    if sweep is None:
        return None
    dag = _Dag()
    artifact_id = _add_artifact(dag, sweep)
    for trial in store.trials_of(digest):
        dag.edge(_add_trial(dag, trial), artifact_id)
    _add_journals_and_tables(dag, store, sweep, artifact_id)
    return dag.rooted(artifact_id)
