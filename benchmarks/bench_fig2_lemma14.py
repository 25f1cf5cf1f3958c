"""E2 — Figure 2 / Lemma 14: flattening a two-level clustering."""

from benchmarks.conftest import emit
from repro.core.lemma14 import lemma14_reference
from repro.graphs.examples import figure2_instance


def test_bench_flatten_reference(benchmark):
    inst = figure2_instance()
    benchmark(
        lemma14_reference,
        inst.graph,
        inst.level1_label,
        inst.level1_dist,
        inst.level2_label,
        inst.level2_dist,
    )


def test_regenerate_figure2(experiment_cache):
    result = experiment_cache("E2")
    emit(result)
    assert result.findings["(ℓ'', δ'') satisfies Definition 2"] == "yes (validated)"
    # the merged clustering uses exactly the two super-labels
    labels = {row[5] for row in result.rows}
    assert labels == {101, 102}
