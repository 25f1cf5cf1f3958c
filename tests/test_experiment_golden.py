"""Golden E-series output: E2, E3, E4, E6, E8a, E9 and E12 render to
pinned bytes.

E6 and E9 run their solves as scenarios through
:func:`repro.api.run_scenario`. Their digests were captured when they
still built their graphs by hand and called the solvers directly, so a
change to scenario param routing or to the registered builders that
moves any table byte fails here.

The others render the centralized oracles: E2 the Lemma 14 reference,
E3 and E4 the Lemma 15 reference, E8a and E12 the Theorem 13 reference,
which composes the two. Their digests were captured while the Theorem
13 reference still carried its own flattening and BFS.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.experiments import run_experiment
from repro.errors import ReproError

E6_SHA256 = "e80be48192c3c01bbee5f9d7d3a78a83ced0bf24ebc35fe69c5df450eb8ae446"
E9_SMALL_SHA256 = (
    "114b65a3e272df4203ac2de71e827730b3c99ba7142b6cb5c0b053601657a9b4"
)
ORACLE_SHA256 = {
    "E2": "5c4ae3559bf74d5ae1c31df01d5df22cdf61d390796c031aba3f7007dc78c4ad",
    "E3": "2a540396d7c399262868d1e023fb3f37f51ee134413deb5e1a2c841891caca8e",
    "E4": "8a832fb313097aa142020b29af8b3a7a6a7dad9f82ecbca1531efc3a0166fdf9",
    "E8a": "1e9813a59e8898958dec1c7763deff9e7287d517e3cb3a9efe96dc19f9eb9b85",
    "E12": "46735a9ca61504a74c5b1607bc29ac0d292ad86cb50423c1ea726b9880ef64d3",
}
ORACLE_OVERRIDES = {"E8a": {"sizes": (64, 256, 1024)}}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_e6_render_is_pinned():
    assert _sha256(run_experiment("E6").render()) == E6_SHA256


def test_e9_render_is_pinned():
    result = run_experiment("E9", sizes=(16, 32))
    assert _sha256(result.render()) == E9_SMALL_SHA256


@pytest.mark.parametrize("exp_id", sorted(ORACLE_SHA256))
def test_oracle_render_is_pinned(exp_id):
    result = run_experiment(exp_id, **ORACLE_OVERRIDES.get(exp_id, {}))
    assert _sha256(result.render()) == ORACLE_SHA256[exp_id]


def test_rejected_scenario_raises():
    with pytest.raises(ReproError, match="unknown problem 'sudoku'"):
        run_experiment("E9", sizes=(16,), problem="sudoku")
