"""E4 — Figure 4 / Lemma 15: parent selection and cluster decomposition."""

from benchmarks.conftest import emit
from repro.core.lemma15 import lemma15_protocol, lemma15_reference
from repro.graphs import gnp
from repro.graphs.examples import figure4_instance
from repro.model import SleepingSimulator


def test_bench_lemma15_reference(benchmark):
    graph = gnp(64, 0.1, seed=4)
    benchmark(lemma15_reference, graph, 3)


def test_bench_lemma15_distributed(benchmark):
    graph = gnp(24, 0.15, seed=4)

    def run():
        def program(info):
            out = yield from lemma15_protocol(
                me=info.id, peers=info.neighbors, n=info.n,
                id_space=info.id_space, b=3, t0=1,
            )
            return out

        return SleepingSimulator(graph, program).run()

    benchmark(run)


def test_regenerate_figure4(experiment_cache):
    result = experiment_cache("E4")
    emit(result)
    inst = figure4_instance()
    # every residual root is a hub of degree > b, as drawn in the figure
    residual_rows = [r for r in result.rows if str(r[6]).startswith("residual")]
    assert residual_rows
    for row in residual_rows:
        root = int(str(row[6]).split(":")[1])
        assert inst.graph.degree(root) > inst.b
