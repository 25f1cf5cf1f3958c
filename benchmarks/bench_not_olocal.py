"""E10 — §2.2: distance-2 coloring is not in O-LOCAL."""

from benchmarks.conftest import emit
from repro.olocal.not_olocal import defeating_id_assignment


def test_bench_defeat_rules(benchmark):
    def defeat_many():
        for seed in range(100):
            f = lambda i, s=seed: 1 + (i * (s + 3)) % 5
            assert defeating_id_assignment(f, 6) is not None

    benchmark(defeat_many)


def test_every_sampled_rule_defeated(experiment_cache):
    result = experiment_cache("E10")
    emit(result)
    assert len(result.rows) >= 8
    for row in result.rows:
        assert "sinks" in row[2]
