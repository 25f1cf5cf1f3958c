"""Lemma 10 — the Barenboim–Maimon color-scheduling mappings φ and r.

For a power of two ``q``, consider the complete binary tree on the label set
{1, ..., 2q-1} labeled by an in-order traversal (Figure 1). Then:

- φ(c) = label of the c-th smallest leaf = ``2c - 1``;
- r(c) = labels on the root-to-leaf path of φ(c), so |r(c)| = 1 + log₂ q;
- for distinct colors c₁, c₂ there is a common element x ∈ r(c₁) ∩ r(c₂)
  strictly between φ(c₁) and φ(c₂) — the label of the lowest common
  ancestor of the two leaves.

These three properties drive the wake-up schedule of Lemma 11: a node of
color c is awake exactly at the rounds in r(c), receives before φ(c),
decides at φ(c), and sends after φ(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.errors import MappingError
from repro.util.mathx import int_log2, next_pow2


@dataclass(frozen=True)
class ColorScheduleMapping:
    """The (φ, r) pair of Lemma 10 for palette {1, ..., q}, q a power of 2."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 1 or self.q & (self.q - 1):
            raise MappingError(f"q must be a positive power of two, got {self.q}")

    @staticmethod
    def for_palette(num_colors: int) -> "ColorScheduleMapping":
        """Mapping for the smallest power-of-two palette covering
        ``num_colors`` colors (the paper's choice of q)."""
        if num_colors < 1:
            raise MappingError(f"palette must be non-empty, got {num_colors}")
        return ColorScheduleMapping(next_pow2(num_colors))

    # -- the mappings -------------------------------------------------------

    @property
    def schedule_length(self) -> int:
        """|r(c)| = 1 + log₂ q, the awake budget per color."""
        return 1 + int_log2(self.q)

    @property
    def num_rounds(self) -> int:
        """All schedule values lie in {1, ..., 2q - 1}."""
        return 2 * self.q - 1

    def phi(self, c: int) -> int:
        """φ(c): the label of the c-th smallest leaf, i.e. 2c - 1."""
        self._check(c)
        return 2 * c - 1

    def r(self, c: int) -> tuple[int, ...]:
        """r(c): labels on the path from the root to leaf φ(c), sorted."""
        self._check(c)
        return _root_to_leaf_labels(self.q, self.phi(c))

    def rounds(self, colors: Any) -> Any:
        """r(c) for many colors at once, as one int64 table.

        Row i is ``r(colors[i])``, sorted, so the table has shape
        ``(len(colors), 1 + log₂ q)``. In the in-order labeling the
        ancestor at height h of leaf φ(c) is the odd multiple of 2^h in
        φ(c)'s block of 2^(h+1) labels, ``((φ(c) >> h) | 1) << h``; h = 0
        is φ(c) itself and h = log₂ q the root q.
        """
        import numpy as np  # the per-node engines never load numpy

        c = np.asarray(colors, dtype=np.int64)
        bad = c[(c < 1) | (c > self.q)]
        if bad.size:
            self._check(int(bad[0]))
        heights = np.arange(self.schedule_length, dtype=np.int64)
        table = (((2 * c[:, None] - 1) >> heights) | 1) << heights
        table.sort(axis=1)
        return table

    def r_less(self, c: int) -> tuple[int, ...]:
        """r<(c) = {x ∈ r(c) : x < φ(c)} — the *receiving* rounds."""
        phi = self.phi(c)
        return tuple(x for x in self.r(c) if x < phi)

    def r_greater(self, c: int) -> tuple[int, ...]:
        """r>(c) = {x ∈ r(c) : x > φ(c)} — the *sending* rounds."""
        phi = self.phi(c)
        return tuple(x for x in self.r(c) if x > phi)

    def meeting_point(self, c1: int, c2: int) -> int:
        """The x ∈ r(c1) ∩ r(c2) with min φ < x < max φ (the LCA label)."""
        if c1 == c2:
            raise MappingError("meeting point needs distinct colors")
        common = set(self.r(c1)) & set(self.r(c2))
        lo, hi = sorted((self.phi(c1), self.phi(c2)))
        between = [x for x in common if lo < x < hi]
        if not between:
            raise MappingError(
                f"Lemma 10 property violated for colors ({c1}, {c2})"
            )  # pragma: no cover - the construction guarantees existence
        return min(between)

    # -- verification (used by tests and bench E1) ---------------------------

    def verify(self) -> None:
        """Exhaustively check the three properties of Lemma 10."""
        expected_len = self.schedule_length
        for c in range(1, self.q + 1):
            rc = self.r(c)
            if len(rc) != expected_len:
                raise MappingError(f"|r({c})| = {len(rc)} != {expected_len}")
            if self.phi(c) not in rc:
                raise MappingError(f"φ({c}) = {self.phi(c)} not in r({c})")
        for c1 in range(1, self.q + 1):
            for c2 in range(c1 + 1, self.q + 1):
                self.meeting_point(c1, c2)  # raises if missing

    def _check(self, c: int) -> None:
        if not 1 <= c <= self.q:
            raise MappingError(f"color {c} outside palette [1, {self.q}]")


@lru_cache(maxsize=None)
def _root_to_leaf_labels(q: int, leaf: int) -> tuple[int, ...]:
    """In-order labels on the path from the root of the complete binary tree
    on {1, .., 2q-1} down to the (odd) leaf label ``leaf``."""
    lo, hi = 1, 2 * q - 1
    path = []
    while True:
        mid = (lo + hi) // 2
        path.append(mid)
        if mid == leaf and lo == hi:
            break
        if leaf < mid:
            hi = mid - 1
        elif leaf > mid:
            lo = mid + 1
        else:  # leaf == mid but span not exhausted: impossible for odd leaves
            break
    return tuple(sorted(path))


def render_figure1(q: int = 8) -> str:
    """ASCII rendering of the Figure 1 tree (level order with in-order
    labels), used by bench E1 to regenerate the figure."""
    mapping = ColorScheduleMapping(q)
    levels: list[list[int]] = []
    frontier = [(1, 2 * q - 1)]
    while frontier:
        labels = [(lo + hi) // 2 for lo, hi in frontier]
        levels.append(labels)
        nxt = []
        for lo, hi in frontier:
            mid = (lo + hi) // 2
            if lo < mid:
                nxt.append((lo, mid - 1))
            if mid < hi:
                nxt.append((mid + 1, hi))
        frontier = nxt
    width = len(str(2 * q - 1)) + 1
    total = (2 * q - 1) * width
    lines = []
    for depth, labels in enumerate(levels):
        slots = len(labels)
        cell = total // slots
        lines.append(
            "".join(str(lab).center(cell) for lab in labels).rstrip()
        )
    lines.append("")
    lines.append(f"phi: {[mapping.phi(c) for c in range(1, q + 1)]}")
    return "\n".join(lines)
