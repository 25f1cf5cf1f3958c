"""Layer timing for traced benchmark runs, recorded from outside ``src/``.

The program has no spans of its own on every layer boundary yet, so a
traced run wraps the entry point of each layer — a module function, a
method, or the ``StaticGraph.arrays`` property — and records a span
around every call made while an operation is being timed. Nested calls
are attributed to their innermost span; ``self_s`` is a span's time minus
its children's. Untraced runs install nothing.

A wrapped attribute that no longer exists (a later refactor renamed it)
raises :class:`AttributeError`, so the traced run fails instead of
reporting a layer that has stopped being measured as taking no time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Canonical problem names -> the short names used in metric names.
PROBLEM_SHORT = {
    "maximal_independent_set": "mis",
    "delta_plus_one_coloring": "coloring",
    "minimal_vertex_cover": "vertex-cover",
}

#: (module, attribute, layer) — plain functions, vectorized and per-node
#: twins sharing a layer name.
FUNCTION_LAYERS = (
    ("repro.api", "build_family_graph", "graphs.build"),
    ("repro.graphs.families", "build_family_graph", "graphs.build"),
    ("repro.core.clustering_vectorized", "_clustering_kernel", "theorem13.cluster"),
    ("repro.core.theorem13", "compute_clustering", "theorem13.cluster"),
    (
        "repro.core.clustering_vectorized",
        "validate_clustering_arrays",
        "theorem13.validate",
    ),
    ("repro.core.theorem1_vectorized", "_run_theorem9_kernel", "theorem9.solve"),
    ("repro.core.theorem9", "solve_with_clustering", "theorem9.solve"),
    ("repro.core.bm21_vectorized", "solve_with_baseline_vectorized", "bm21.solve"),
    ("repro.core.bm21", "solve_with_baseline", "bm21.solve"),
    ("repro.model.vectorized", "greedy_by_id_vectorized", "greedy.solve"),
    ("repro.olocal.problem", "sequential_greedy", "greedy.solve"),
)

#: Layers whose peak-RSS growth is recorded too.
RSS_LAYERS = ("graphs.build", "theorem13.cluster")


def _status_kib(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (Linux ``clear_refs`` code 5)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass  # the mark keeps its old value; growth then reads low


class Tracer:
    """In-memory span totals for the layers named in this module.

    ``armed`` gates recording: the benchmark arms the tracer only while
    an operation is being timed, so its own correctness checks (which
    call ``problem.check`` too) never count as layer time.
    """

    def __init__(self) -> None:
        self.armed = False
        self.total_s: dict[str, float] = defaultdict(float)
        self.child_s: dict[str, float] = defaultdict(float)
        self.rss_mb: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call of layer ``name``; nested spans are children."""
        track_rss = name in RSS_LAYERS
        if track_rss:
            rss_start = _status_kib("VmRSS")
            _reset_peak_rss()
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self.total_s[name] += elapsed
            if self._stack:
                self.child_s[self._stack[-1]] += elapsed
            else:
                self.root_s += elapsed
            if track_rss:
                grown = (_status_kib("VmHWM") - rss_start) / 1024.0
                self.rss_mb[name] = max(self.rss_mb[name], grown)

    def self_s(self, name: str) -> float:
        """Time in ``name`` not covered by a nested span."""
        return self.total_s[name] - self.child_s[name]

    def reset(self) -> None:
        """Forget every recorded span (wrappers stay installed)."""
        self.total_s.clear()
        self.child_s.clear()
        self.rss_mb.clear()
        self.root_s = 0.0

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, owner: Any, attr: str, name_of: Callable[..., str]) -> None:
        if not hasattr(owner, attr):
            raise AttributeError(
                f"cannot trace {getattr(owner, '__name__', owner)}.{attr}: "
                f"no such attribute"
            )
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.armed:
                return original(*args, **kwargs)
            with tracer.span(name_of(*args, **kwargs)):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer entry point; :meth:`uninstall` undoes it."""
        from repro.api import Scenario
        from repro.core.algorithms import AlgorithmAdapter
        from repro.graphs.graph import StaticGraph
        from repro.olocal.problem import OLocalProblem

        for module_name, attr, layer in FUNCTION_LAYERS:
            module = importlib.import_module(module_name)
            self._wrap(module, attr, lambda *a, _layer=layer, **k: _layer)
        self._wrap(Scenario, "validate", lambda *a, **k: "api.validate")
        self._wrap(
            OLocalProblem,
            "check",
            lambda problem, *a, **k: "olocal.check."
            + PROBLEM_SHORT.get(problem.name, problem.name),
        )

        def solve_name(adapter: Any, graph: Any, problem: Any, *a: Any, **k: Any):
            short = PROBLEM_SHORT.get(problem.name, problem.name)
            return f"algorithms.solve.{adapter.name}.{short}"

        self._wrap(AlgorithmAdapter, "solve", solve_name)

        arrays = StaticGraph.__dict__.get("arrays")
        if not isinstance(arrays, property):
            raise AttributeError("cannot trace StaticGraph.arrays: not a property")
        tracer = self

        def timed_arrays(graph: Any) -> Any:
            if not tracer.armed or "_arrays_cache" in graph.__dict__:
                return arrays.fget(graph)
            with tracer.span("graphs.arrays"):
                return arrays.fget(graph)

        StaticGraph.arrays = property(timed_arrays, doc=arrays.__doc__)
        self._undo.append((StaticGraph, "arrays", arrays))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
