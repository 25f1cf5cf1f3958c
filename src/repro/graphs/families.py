"""The graph-family registry: named, seeded builders + ID schemes.

This module is the single source of truth for what a *family name*
means — ``repro solve --family``, ``repro sweep --grid --families``,
:class:`repro.api.Scenario` and the sweep runner's grid specs all
resolve through :data:`GRAPH_FAMILIES` (it previously lived inside the
CLI, which forced the runner to import :mod:`repro.cli` — a layering
inversion fixed by this module).

Every builder has the uniform signature ``build(n, *, seed, ids,
**params)`` where ``ids`` is a resolved
:class:`~repro.util.idspace.IdAssignment` (or ``None`` for the identity
scheme) and ``params`` are the family's declared parameters (see each
entry's ``params`` schema — e.g. ``p`` for ``gnp``, ``degree`` for
``regular``). New families register with the same decorator::

    from repro.graphs.families import GRAPH_FAMILIES

    @GRAPH_FAMILIES.register("lollipop", title="Clique + tail")
    def build_lollipop(n, *, seed, ids):
        ...

ID schemes (the LOCAL model's polynomial ID-space assumption, §5
Remark) are strings: ``identity`` (IDs 1..n), ``permuted`` (a seeded
permutation of 1..n), or ``polyK`` (unique IDs from ``[1, n^K]``;
``poly`` alone means ``poly2``).
"""

from __future__ import annotations

from typing import Callable

from repro.graphs.generators import (
    complete_graph,
    cycle,
    gnp,
    grid,
    hypercube,
    path,
    preferential_attachment,
    random_regular,
    random_tree,
    star,
)
from repro.graphs.graph import StaticGraph
from repro.registry import Registry, RegistryError, UnknownNameError
from repro.util.idspace import IdAssignment, permuted_ids, polynomial_ids
from repro.util.mathx import ceil_sqrt

#: Builder signature: ``build(n, *, seed, ids, **params)``.
FamilyBuilder = Callable[..., StaticGraph]

#: The family registry — the one place family names are defined.
GRAPH_FAMILIES: Registry[FamilyBuilder] = Registry("family")

#: Valid ID-scheme spellings (``polyK`` for any integer K >= 1).
ID_SCHEMES = ("identity", "permuted", "polyK")


def validate_id_scheme(scheme: str) -> None:
    """Check an ID-scheme string syntactically (no assignment is built —
    cheap enough for scenario validation at any n); raises
    :class:`UnknownNameError` listing the valid spellings."""
    if scheme in ("identity", "permuted"):
        return
    if scheme.startswith("poly") and (scheme[4:] == "" or scheme[4:].isdigit()):
        return
    raise UnknownNameError(
        f"unknown id scheme {scheme!r}; choose from {list(ID_SCHEMES)}"
    )


def resolve_id_assignment(
    scheme: str, n: int, seed: int = 0
) -> IdAssignment | None:
    """Turn an ID-scheme string into a concrete assignment.

    ``None`` means "builder default" (identity IDs 1..n). Unknown
    schemes raise :class:`UnknownNameError` listing the valid ones.
    """
    validate_id_scheme(scheme)
    if scheme == "identity":
        return None
    if scheme == "permuted":
        return permuted_ids(n, seed=seed)
    return polynomial_ids(n, exponent=int(scheme[4:] or 2), seed=seed)


def build_family_graph(
    family: str,
    n: int,
    seed: int = 0,
    p: float = 0.15,
    degree: int = 4,
    ids: str = "identity",
    **params: object,
) -> StaticGraph:
    """Instantiate a registered graph family with an ID scheme.

    ``p`` and ``degree`` keep their historical role as convenience
    defaults: they are forwarded only to families whose schema declares
    them. Extra ``params`` must be declared by the family's schema
    (unknown ones raise :class:`RegistryError` naming the schema), so a
    typo fails loudly at build time.
    """
    entry = GRAPH_FAMILIES.entry(family)
    id_assignment = resolve_id_assignment(ids, n, seed)
    kwargs = dict(params)
    if "p" in entry.params:
        kwargs.setdefault("p", p)
    if "degree" in entry.params:
        kwargs.setdefault("degree", degree)
    unknown = sorted(set(kwargs) - set(entry.params))
    if unknown:
        raise RegistryError(
            f"family {entry.name!r} does not take parameter(s) {unknown}; "
            f"declared: {sorted(entry.params) or 'none'}"
        )
    return entry.value(n, seed=seed, ids=id_assignment, **kwargs)


# ---------------------------------------------------------------------------
# Built-in families (semantics identical to the pre-registry CLI table).
# ---------------------------------------------------------------------------


@GRAPH_FAMILIES.register("path", title="Path P_n")
def _build_path(n: int, seed: int, ids: IdAssignment | None) -> StaticGraph:
    """Path on n nodes."""
    return path(n, ids)


@GRAPH_FAMILIES.register("cycle", title="Cycle C_n")
def _build_cycle(n: int, seed: int, ids: IdAssignment | None) -> StaticGraph:
    """Cycle on n nodes."""
    return cycle(n, ids)


@GRAPH_FAMILIES.register("star", title="Star K_{1,n-1}")
def _build_star(n: int, seed: int, ids: IdAssignment | None) -> StaticGraph:
    """Star with one hub and n-1 leaves."""
    return star(n, ids)


@GRAPH_FAMILIES.register("complete", title="Complete graph K_n")
def _build_complete(
    n: int, seed: int, ids: IdAssignment | None
) -> StaticGraph:
    """Complete graph on n nodes."""
    return complete_graph(n, ids)


@GRAPH_FAMILIES.register(
    "grid", title="⌈√n⌉ × ⌈√n⌉ grid (identity IDs; n rounds up to a square)"
)
def _build_grid(n: int, seed: int, ids: IdAssignment | None) -> StaticGraph:
    """Two-dimensional grid with side ⌈√n⌉ (ID scheme not applied)."""
    return grid(ceil_sqrt(n), ceil_sqrt(n), None)


@GRAPH_FAMILIES.register(
    "hypercube", title="Hypercube Q_d, d = ⌊log₂ n⌋ (identity IDs)"
)
def _build_hypercube(
    n: int, seed: int, ids: IdAssignment | None
) -> StaticGraph:
    """Hypercube of dimension max(1, n.bit_length() - 1)."""
    return hypercube(max(1, n.bit_length() - 1), None)


@GRAPH_FAMILIES.register("tree", title="Uniform random tree")
def _build_tree(n: int, seed: int, ids: IdAssignment | None) -> StaticGraph:
    """Seeded uniform random tree."""
    return random_tree(n, seed=seed, ids=ids)


@GRAPH_FAMILIES.register(
    "gnp",
    title="Erdős–Rényi G(n, p), connectivity-patched",
    params={
        "p": "edge probability (default 0.15)",
        "method": (
            "sampler: 'binomial' (default, walks all n² pairs) or 'fast' "
            "(O(n + m) geometric skipping for mega-scale n, straight into "
            "CSR arrays; needs numpy; draws the same graph as networkx's "
            "fast_gnp_random_graph plus the connectivity patch, which "
            "differs from 'binomial' for the same seed)"
        ),
    },
)
def _build_gnp(
    n: int,
    seed: int,
    ids: IdAssignment | None,
    p: float = 0.15,
    method: str = "binomial",
) -> StaticGraph:
    """Seeded G(n, p) random graph."""
    return gnp(n, p, seed=seed, ids=ids, method=method)


@GRAPH_FAMILIES.register(
    "regular",
    title="Random d-regular graph (n bumped to make n·d even; identity IDs)",
    params={"degree": "regular degree d (default 4)"},
)
def _build_regular(
    n: int, seed: int, ids: IdAssignment | None, degree: int = 4
) -> StaticGraph:
    """Seeded random regular graph."""
    return random_regular(
        n if (n * degree) % 2 == 0 else n + 1, degree, seed=seed, ids=None
    )


@GRAPH_FAMILIES.register(
    "powerlaw", title="Preferential attachment, m = max(2, n/16)"
)
def _build_powerlaw(
    n: int, seed: int, ids: IdAssignment | None
) -> StaticGraph:
    """Seeded preferential-attachment (power-law degree) graph."""
    return preferential_attachment(n, max(2, n // 16), seed=seed, ids=ids)
