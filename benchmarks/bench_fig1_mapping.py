"""E1 — Figure 1 / Lemma 10: regenerate the tree and verify the mappings."""

from benchmarks.conftest import emit
from repro.core.mapping import ColorScheduleMapping


def test_bench_verify_q256(benchmark):
    """Time the exhaustive property verification for a 256-color palette."""
    mapping = ColorScheduleMapping(256)
    benchmark(mapping.verify)


def test_bench_schedule_lookup(benchmark):
    """Time the per-node schedule computation (hot path of Lemma 11)."""
    mapping = ColorScheduleMapping(1 << 14)

    def lookup():
        for c in range(1, 512):
            mapping.r(c)
            mapping.phi(c)

    benchmark(lookup)


def test_regenerate_figure1(experiment_cache):
    result = experiment_cache("E1")
    emit(result)
    assert all(row[-1] == "ok" for row in result.rows)
    # the paper's concrete values
    assert "3, [2, 3, 4, 8]" in result.findings["phi(2), r(2) at q=8 (paper)"]
    assert "7, [4, 6, 7, 8]" in result.findings["phi(4), r(4) at q=8 (paper)"]
