"""Golden E-series output: E6 and E9 render to pinned bytes.

Both experiments run their solves as scenarios through
:func:`repro.api.run_scenario`. The digests were captured when they
still built their graphs by hand and called the solvers directly, so a
change to scenario param routing or to the registered builders that
moves any table byte fails here.
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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_e6_render_is_pinned():
    assert _sha256(run_experiment("E6").render()) == E6_SHA256


def test_e9_render_is_pinned():
    result = run_experiment("E9", sizes=(16, 32))
    assert _sha256(result.render()) == E9_SMALL_SHA256


def test_rejected_scenario_raises():
    with pytest.raises(ReproError, match="unknown problem 'sudoku'"):
        run_experiment("E9", sizes=(16,), problem="sudoku")
