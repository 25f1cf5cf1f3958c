"""Golden GRID output: a mixed grid renders to pinned bytes.

The grid mixes plain cells, an algorithm alias (``bm21``), an engine
axis (``simulator``/``vectorized``) and a fault axis (``fault_drop``),
so every branch of grid enumeration and trial execution feeds one
``GRID`` table. The pinned digests cover the rendered table, the trial
labels/kwargs/seeds the trial cache and the results store key on, and
which fault trials fail — any refactor of the runner must keep all
three byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.runner import run_sweep, sweep_from_grid
from repro.runner.specs import SweepSpec

RENDER_SHA256 = (
    "978b7e28bbcd81d63d3ae68e43fab5a9670e11c3aede9bde6a0fce467bd69276"
)
TRIALS_SHA256 = (
    "95131cb91c418f0ac76c415d81973e3fa8bddd764748aee1c6b3b31bec4d1eef"
)
FAILED = [
    ("path/n=10/mis/theorem1#0!d=0.05,c=0", "ProtocolError"),
    ("path/n=10/mis/theorem9#0!d=0.05,c=0", "ValidationError"),
    ("cycle/n=10/mis/theorem1#0!d=0.05,c=0", "ProtocolError"),
]


def _golden_spec() -> SweepSpec:
    parts = [
        sweep_from_grid(
            families=["path", "gnp"], sizes=[8, 12],
            problems=["mis", "coloring"],
            algorithms=["theorem1", "bm21", "greedy"], master_seed=7,
        ),
        sweep_from_grid(
            families=["tree"], sizes=[16], problems=["mis"],
            algorithms=["theorem1", "baseline", "greedy"],
            engines=["simulator", "vectorized"], master_seed=7,
        ),
        sweep_from_grid(
            families=["path", "cycle"], sizes=[10], problems=["mis"],
            algorithms=["theorem1", "baseline", "theorem9"],
            fault_drop=0.05, master_seed=7,
        ),
    ]
    trials = [t for part in parts for t in part.trials]
    return SweepSpec(
        name="golden",
        trials=tuple(replace(t, index=i) for i, t in enumerate(trials)),
        master_seed=7,
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_trial_identities_are_pinned():
    spec = _golden_spec()
    identities = [(t.label, t.kwargs, t.seed) for t in spec.trials]
    assert _sha256(repr(identities)) == TRIALS_SHA256


def test_grid_render_is_pinned():
    result = run_sweep(_golden_spec(), workers=1, keep_going=True)
    assert [(f.label, f.error_type) for f in result.failures] == FAILED
    assert _sha256(result.render(allow_partial=True)) == RENDER_SHA256
