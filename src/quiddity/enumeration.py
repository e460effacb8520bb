"""Exhaustive generation and counting of dissections under cell-size filters.

Generation designates the polygon edge (0, N-1) as the base edge,
chooses the cell containing it, and recurses into the sub-polygons cut
off by that cell.  Every dissection determines its base cell uniquely,
so each one is produced exactly once, in a fixed deterministic order,
with no isomorphism rejection.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from . import formulas
from .core import (
    Chord,
    Dissection,
    DomainError,
    Quiddity,
    ResourceLimitError,
    dihedral_orbit,
    quiddity,
)

DEFAULT_MATERIALIZE_CAP = 10_000_000


@dataclass(frozen=True)
class CellFilter:
    """Restriction on the allowed cell sizes of a dissection.

    ``kind`` is "all", "ell" (every size congruent to 3 mod ``ell``) or
    "sizes" (every size in the finite set ``sizes``).  Equal-size
    families are the one-element "sizes" case.
    """

    kind: str = "all"
    ell: Optional[int] = None
    sizes: Optional[frozenset[int]] = None

    def __post_init__(self) -> None:
        if self.kind == "ell":
            if self.ell is None or self.ell < 1:
                raise DomainError(f"period must be at least 1, got {self.ell}")
        elif self.kind == "sizes":
            if not self.sizes:
                raise DomainError("size set must be nonempty")
            if any(s < 3 for s in self.sizes):
                raise DomainError("cell sizes must be at least 3")
        elif self.kind != "all":
            raise DomainError(f"unknown filter kind {self.kind!r}")

    @classmethod
    def all_cells(cls) -> "CellFilter":
        return cls("all")

    @classmethod
    def ell_periodic(cls, ell: int) -> "CellFilter":
        return cls("ell", ell=ell)

    @classmethod
    def size_set(cls, sizes) -> "CellFilter":
        return cls("sizes", sizes=frozenset(sizes))

    @classmethod
    def equal_size(cls, k: int) -> "CellFilter":
        return cls.size_set({k})

    def allows(self, size: int) -> bool:
        if size < 3:
            return False
        if self.kind == "all":
            return True
        if self.kind == "ell":
            return size % self.ell == 3 % self.ell
        return size in self.sizes

    def allowed_sizes_upto(self, limit: int) -> list[int]:
        return [t for t in range(3, limit + 1) if self.allows(t)]

    def describe(self) -> str:
        if self.kind == "all":
            return "all"
        if self.kind == "ell":
            return f"ell={self.ell}"
        return "sizes=" + ",".join(str(s) for s in sorted(self.sizes))


ALL_CELLS = CellFilter.all_cells()


def _check_range(n_vertices: int, m: Optional[int]) -> None:
    if n_vertices < 3:
        raise DomainError(f"polygon needs at least 3 vertices, got {n_vertices}")
    if m is not None and not 1 <= m <= n_vertices - 2:
        raise DomainError(
            f"cell count {m} out of range [1, {n_vertices - 2}] for an {n_vertices}-gon"
        )


def enumerate_dissections(
    n_vertices: int,
    m: Optional[int] = None,
    cell_filter: CellFilter = ALL_CELLS,
) -> Iterator[Dissection]:
    """Yield every dissection of the N-gon exactly once, in canonical
    form, restricted to ``m`` cells if given and to the size filter.

    The order is deterministic: base cells are chosen by increasing
    size then by vertex tuple, and sub-polygons fill left to right.
    """
    _check_range(n_vertices, m)
    allowed = cell_filter.allowed_sizes_upto(n_vertices)
    # Feasible-range bounds (not exact feasibility) on the cell count of
    # a sub-polygon on s vertices, for pruning: its budget is s-2, and a
    # cell of size t consumes t-2.
    size_bounds = [(1, 0)] * (n_vertices + 1)  # an empty range: infeasible
    size_bounds[2] = (0, 0)
    for s in range(3, n_vertices + 1):
        fitting = [t for t in allowed if t <= s]
        if fitting:
            size_bounds[s] = (-(-(s - 2) // (fitting[-1] - 2)), (s - 2) // (fitting[0] - 2))

    def gen(lo: int, hi: int, want_lo: int, want_hi: int):
        """Dissections of the sub-polygon on vertices lo..hi whose base
        edge is (lo, hi), with cell count in [want_lo, want_hi].
        Yields (chords tuple, cell count)."""
        s = hi - lo + 1
        if s == 2:
            if want_lo <= 0 <= want_hi:
                yield (), 0
            return
        for t in allowed:
            if t > s:
                break
            for mids in itertools.combinations(range(lo + 1, hi), t - 2):
                corners = (lo, *mids, hi)
                gaps = [
                    (corners[k], corners[k + 1])
                    for k in range(t - 1)
                    if corners[k + 1] - corners[k] >= 2
                ]
                bounds = [size_bounds[q - p + 1] for p, q in gaps]
                min_rest = sum(b[0] for b in bounds)
                max_rest = sum(b[1] for b in bounds)
                if min_rest + 1 > want_hi or max_rest + 1 < want_lo:
                    continue

                def fill(idx: int, acc: tuple[Chord, ...], used: int):
                    if idx == len(gaps):
                        yield acc, used + 1
                        return
                    p, q = gaps[idx]
                    lo_rest = sum(b[0] for b in bounds[idx + 1:])
                    hi_rest = sum(b[1] for b in bounds[idx + 1:])
                    sub_lo = max(bounds[idx][0], want_lo - 1 - used - hi_rest)
                    sub_hi = min(bounds[idx][1], want_hi - 1 - used - lo_rest)
                    for sub_chords, sub_cells in gen(p, q, sub_lo, sub_hi):
                        yield from fill(idx + 1, acc + ((p, q),) + sub_chords, used + sub_cells)

                yield from fill(0, (), 0)

    want_lo = m if m is not None else 1
    want_hi = m if m is not None else n_vertices - 2
    for chords, count in gen(0, n_vertices - 1, want_lo, want_hi):
        if m is None or count == m:
            yield Dissection(n_vertices, chords)


def count_dissections(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of dissections of the N-gon into m cells passing the
    filter, from the composition formula (no materialization)."""
    _check_range(n_vertices, m)
    return formulas.dissection_count(
        n_vertices - 2, m, [t - 2 for t in cell_filter.allowed_sizes_upto(n_vertices)])


def count_quiddities(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of distinct quiddity vectors over the enumerated family."""
    _check_range(n_vertices, m)
    seen: set[tuple[int, ...]] = set()
    for d in enumerate_dissections(n_vertices, m, cell_filter):
        seen.add(quiddity(d).entries)
    return len(seen)


@dataclass(frozen=True)
class QuiddityClassTable:
    """Full map from quiddity to the dissections realizing it, for a
    fixed (N, m, filter), with a per-class dihedral-congruence report."""

    n_vertices: int
    m: int
    cell_filter: CellFilter
    classes: dict[Quiddity, tuple[Dissection, ...]]
    dihedral_closed: dict[Quiddity, bool]

    def total_dissections(self) -> int:
        return sum(len(v) for v in self.classes.values())


def quiddity_classes(
    n_vertices: int,
    m: int,
    cell_filter: CellFilter = ALL_CELLS,
    max_dissections: int = DEFAULT_MATERIALIZE_CAP,
) -> QuiddityClassTable:
    """Group every enumerated dissection by its quiddity.

    Refuses to materialize families larger than ``max_dissections``.
    A class is flagged dihedral-closed when all its members are
    relabelings of the first under the dihedral group.
    """
    _check_range(n_vertices, m)
    expected = count_dissections(n_vertices, m, cell_filter)
    if expected > max_dissections:
        raise ResourceLimitError(
            f"{expected} dissections exceed the cap of {max_dissections}"
        )
    grouped: dict[Quiddity, list[Dissection]] = {}
    for d in enumerate_dissections(n_vertices, m, cell_filter):
        grouped.setdefault(quiddity(d), []).append(d)
    classes = {q: tuple(ds) for q, ds in grouped.items()}
    closed = {}
    for q, ds in classes.items():
        orbit = dihedral_orbit(ds[0]) if len(ds) > 1 else None
        closed[q] = all(d in orbit for d in ds[1:]) if orbit else True
    return QuiddityClassTable(n_vertices, m, cell_filter, classes, closed)
