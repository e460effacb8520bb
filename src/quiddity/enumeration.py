"""Exhaustive generation and counting of dissections under cell-size filters.

Generation designates the polygon edge (0, N-1) as the base edge,
chooses the cell containing it, and recurses into the sub-polygons cut
off by that cell.  Every dissection determines its base cell uniquely,
so each one is produced exactly once, in a fixed deterministic order,
with no isomorphism rejection.

The search is steered by exact cell-count masks, built once per call:
for each sub-polygon size, the set of cell counts its dissections can
have under the filter, as the bits of an integer.  A base cell's
corners, and each sub-polygon's wanted counts, are chosen only where
the masks say some dissection completes them, so no branch is dead and
the time is proportional to the number of dissections yielded.

A sub-polygon's feasible base cells, and its gaps' masks, depend only
on its shape: its span and its wanted counts, not its position.  So
each call keeps a plan table, keyed by shape and base-cell size, that
lists them once, relative to the sub-polygon's first vertex, the first
time the search reaches that shape; every later sub-polygon of the
shape replays the plan shifted to its position.  The table holds plans,
never dissections, so generation still streams.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import formulas
from .core import (
    Chord,
    Dissection,
    DomainError,
    Quiddity,
    ResourceLimitError,
    quiddity,
)

# Largest family, by its closed-form count, that ``count_quiddities``
# and, by default, ``quiddity_classes`` enumerate, and so the
# ``quiddities`` and ``classes`` verbs.  It admits every family of an
# N-gon with N <= 11; the largest, 32,032 dissections of the 11-gon
# into 7 cells, takes 0.6 s for ``quiddities`` and 1.0-1.3 s for
# ``classes`` on a 2-core machine.
# Few-cell families of larger polygons cost more per member, since a
# quiddity has N entries: ``classes --n 27 --m 3`` (34,776) takes
# 1.4-1.6 s, most of it in ``quiddity()``.
FAMILY_CAP = 35_000

# Largest polygon that ``enumerate_dissections`` accepts.  Before a
# shape's first dissection it plans that shape's base cells, so the
# first dissection costs O(N^3) mask operations over the spans below N:
# at N = 200 it takes 0.5-1.4 s, the most with every cell allowed, on a
# 2-core machine.
ENUMERATE_N_CAP = 200


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


def _sumset(a: int, b: int) -> int:
    """The sumset {x + y : x in a, y in b} of two cell-count masks
    (bit c set when c cells are reachable): ``b << x`` over the bits x
    of ``a``."""
    out = 0
    while a:
        low = a & -a
        out |= b << (low.bit_length() - 1)
        a ^= low
    return out


def _differences(want: int, a: int) -> int:
    """The counts y with y + x in ``want`` for some x in ``a``:
    ``want >> x`` over the bits x of ``a`` up to the top of ``want``."""
    a &= (1 << want.bit_length()) - 1
    out = 0
    while a:
        low = a & -a
        out |= want >> (low.bit_length() - 1)
        a ^= low
    return out


# A planned gap (p, q) of a base cell, relative to the first vertex of
# its sub-polygon, with reach[q - p + 1] and its fits mask: the counts of
# the gap that the gaps after it can complete to a wanted total, before
# earlier gaps used any.
_Step = tuple[int, int, int, int]


def _reach_masks(n_vertices: int, allowed: list[int]) -> list[int]:
    """reach[s]: the cell counts that a sub-polygon on s consecutive
    vertices, over its base edge, can have under the filter, as a bit
    mask (bit c set when c cells are reachable; an edge, s = 2, has 0
    cells).  Cells of sizes t_1..t_c fill an s-gon exactly when the
    excesses t_i - 2 sum to s - 2, so reach[s] is reach[s - t + 2]
    shifted up one count, over the allowed sizes t."""
    reach = [0, 0, 1] + [0] * (n_vertices - 2)
    for s in range(3, n_vertices + 1):
        cell = 0
        for t in allowed:
            if t > s:
                break
            cell |= reach[s - t + 2]
        reach[s] = cell << 1
    return reach


def enumerate_dissections(
    n_vertices: int,
    m: Optional[int] = None,
    cell_filter: CellFilter = ALL_CELLS,
) -> Iterator[Dissection]:
    """Yield every dissection of the N-gon exactly once, in canonical
    form, restricted to ``m`` cells if given and to the size filter.

    The order is deterministic: base cells are chosen by increasing
    size then by vertex tuple, and sub-polygons fill left to right.
    Exact cell-count masks steer the search, so every branch it enters
    ends in at least one dissection.  A sub-polygon's base cells depend
    only on its shape, its span and wanted counts, so each shape's are
    planned once per call, with their gaps' masks, and replayed at
    every position it occurs; the plans, not the dissections, are kept.
    After a set-up polynomial in N, the time is proportional to the
    number of dissections yielded.  Refuses N over ``ENUMERATE_N_CAP``.
    """
    _check_range(n_vertices, m)
    if n_vertices > ENUMERATE_N_CAP:
        raise ResourceLimitError(
            f"a {n_vertices}-gon is over the enumeration cap of {ENUMERATE_N_CAP} vertices"
        )
    allowed = cell_filter.allowed_sizes_upto(n_vertices)
    reach = _reach_masks(n_vertices, allowed)

    def base_cells(span: int, t: int, want: int) -> list[list[Chord]]:
        """Every base cell of size t on the edge (0, span) whose gaps can
        hold a total count in ``want``, by its corners in lexicographic
        order, as the list of its gaps that hold a cell (two or more
        polygon edges)."""
        found: list[list[Chord]] = []

        def extend(prev: int, left: int, rest: int, gaps: list[Chord]) -> None:
            # ``left`` gaps follow corner ``prev``; ``rest`` is the
            # totals they may have
            if left == 1:
                found.append(gaps + [(prev, span)] if span - prev >= 2 else gaps)
                return
            # k >= 1 consecutive gaps spanning r polygon edges, a gap of
            # span g being a sub-polygon on g + 1 vertices, hold the totals
            # of one sub-polygon on r - k + 2 vertices: the excesses add
            # up the same way, and a gap of span 1 holds nothing
            for c in range(prev + 1, span - left + 2):
                after = _differences(rest, reach[c - prev + 1])
                if reach[span - c - left + 3] & after:
                    extend(c, left - 1, after, gaps + [(prev, c)] if c - prev >= 2 else gaps)

        if reach[span - t + 3] & want:  # its t - 1 gaps span the span edges
            extend(0, t - 1, want, [])
        return found

    # (span, t, gaps' wanted totals) -> the base cells of size t of that
    # shape, each as its steps, one per gap (p, q) that holds a cell,
    # relative to the shape's first vertex.  Keyed by size too, so that a
    # size is planned only when the search reaches it.
    plans: dict[tuple[int, int, int], list[tuple[_Step, ...]]] = {}

    def plan(span: int, t: int, want: int) -> list[tuple[_Step, ...]]:
        steps = plans.get((span, t, want))
        if steps is None:
            steps = plans[span, t, want] = []
            for gaps in base_cells(span, t, want):
                cell = []
                suffix = 1
                for p, q in reversed(gaps):
                    cell.append((p, q, reach[q - p + 1], _differences(want, suffix)))
                    suffix = _sumset(reach[q - p + 1], suffix)
                steps.append(tuple(reversed(cell)))
        return steps

    def gen(lo: int, hi: int, want: int):
        """Dissections of the sub-polygon on vertices lo..hi (at least
        three) whose base edge is (lo, hi), with a cell count in the mask
        ``want``.  Yields (chords, cell count)."""
        span = hi - lo
        for t in allowed:
            if t > span + 1:
                break
            for steps in plan(span, t, want >> 1):  # the base cell is one of the cells
                yield from fill(steps, lo, 0, (), 0)

    def fill(steps: tuple[_Step, ...], lo: int, idx: int, acc: tuple[Chord, ...], used: int):
        """Fill gaps idx, idx+1, ... of a base cell, planned relative to
        ``lo``, left to right, after the earlier gaps gave the chords
        ``acc`` and ``used`` cells."""
        while idx < len(steps):
            p, q, sub_reach, fits = steps[idx]
            sub_want = sub_reach & (fits >> used)
            if sub_want != 2:
                break
            # one cell: the gap is a cell, with no chords inside
            acc += ((p + lo, q + lo),)
            used += 1
            idx += 1
        else:  # every gap is filled
            yield acc, used + 1
            return
        chord = (p + lo, q + lo)
        for sub_chords, sub_cells in gen(chord[0], chord[1], sub_want):
            yield from fill(steps, lo, idx + 1, acc + (chord,) + sub_chords, used + sub_cells)

    want = 1 << m if m is not None else (1 << (n_vertices - 1)) - 2
    for chords, _ in gen(0, n_vertices - 1, want):
        yield Dissection._trusted(n_vertices, chords)


def count_dissections(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of dissections of the N-gon into m cells passing the
    filter, from the composition formula (no materialization)."""
    _check_range(n_vertices, m)
    return formulas.dissection_count(
        n_vertices - 2, m, [t - 2 for t in cell_filter.allowed_sizes_upto(n_vertices)])


def _refuse_large_family(
    n_vertices: int, m: int, cell_filter: CellFilter, cap: int = FAMILY_CAP
) -> None:
    """Refuse, before enumerating, a family of more than ``cap``
    dissections by its closed-form count."""
    expected = count_dissections(n_vertices, m, cell_filter)
    if expected > cap:
        raise ResourceLimitError(f"{expected} dissections exceed the cap of {cap}")


def count_quiddities(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of distinct quiddity vectors over the enumerated family.
    Refuses families larger than ``FAMILY_CAP``."""
    _refuse_large_family(n_vertices, m, cell_filter)
    seen: set[tuple[int, ...]] = set()
    for d in enumerate_dissections(n_vertices, m, cell_filter):
        seen.add(quiddity(d).entries)
    return len(seen)


def quiddity_classes(
    n_vertices: int,
    m: int,
    cell_filter: CellFilter = ALL_CELLS,
    max_dissections: int = FAMILY_CAP,
) -> dict[Quiddity, tuple[Dissection, ...]]:
    """Group every enumerated dissection by its quiddity, each class in
    enumeration order.  Refuses families larger than ``max_dissections``.
    """
    _refuse_large_family(n_vertices, m, cell_filter, max_dissections)
    grouped: dict[Quiddity, list[Dissection]] = {}
    for d in enumerate_dissections(n_vertices, m, cell_filter):
        grouped.setdefault(quiddity(d), []).append(d)
    return {q: tuple(ds) for q, ds in grouped.items()}
