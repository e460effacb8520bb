"""Exhaustive generation and counting of dissections under cell-size filters.

Generation designates the polygon edge (0, N-1) as the base edge,
chooses the cell containing it, and fills the sub-polygons cut off by
that cell the same way, each over the chord it is cut off by.  Every
dissection determines its base cell uniquely, so each one is produced
exactly once, in a fixed deterministic order, with no isomorphism
rejection.

The search is steered by exact cell-count masks, built once per call:
for each sub-polygon size, the set of cell counts its dissections can
have under the filter, as the bits of an integer.  A base cell's
corners, and each sub-polygon's wanted counts, are chosen only where
the masks say some dissection completes them, so no branch is dead and
the time is proportional to the number of dissections yielded.

A sub-polygon's feasible base cells, and its gaps' masks, depend only
on its shape: its span and its wanted counts, not its position.  So
each call keeps a plan table, keyed by shape, that lists them relative
to the sub-polygon's first vertex, one at a time, each when the search
first asks for it; every later sub-polygon of the shape replays the
plan shifted to its position.  The table holds plans, never
dissections, so generation still streams, and the first dissection
plans one base cell per sub-polygon it places.

The search is one loop over an explicit stack (compare the stack-based
generation of nested structures in Knuth, TAOCP 4A, 7.2.1.6).  A stack
entry is a choice point, a sub-polygon whose mask allows more than one
cell; a gap that must be exactly one cell is placed inline.  Each
dissection is handed up once, from that one loop.  The loop also logs
every cell it places, so the family functions read each member's
quiddity off the log, cross-checked against 1 + chord degree.

The ``enumerate`` and ``classes`` verbs write each member's text from
the walk, with no ``Dissection`` built (``_texts``, ``_class_texts``).
The walk places chords in pre-order, so the chords of one left end
come together, longest first, and reversing each such run sorts them;
with each member it hands up how many chords it kept from the member
before.  One line writer (``_line_writer``) keeps the text of every
prefix of the chords, and writes each line on from the kept prefix,
with only the chords placed since: no sort, and no join of every
chord's name.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log10
from typing import Callable, Iterator, Optional, Sequence

from . import formulas
from .core import (
    Chord,
    Dissection,
    DomainError,
    Quiddity,
    ResourceLimitError,
)

# Largest family, by its closed-form count, that ``count_quiddities``
# and, by default, ``quiddity_classes`` enumerate, and so the
# ``quiddities`` and ``classes`` verbs.  It admits every family of an
# N-gon with N <= 11; the largest, 32,032 dissections of the 11-gon
# into 7 cells, takes 0.2 s for ``quiddities`` and 0.5-0.6 s for
# ``classes`` on a 2-core machine.
# Few-cell families of larger polygons cost more per member, since a
# quiddity has N entries: ``classes --n 27 --m 3`` (34,776) takes
# 0.9 s.
FAMILY_CAP = 35_000

# Largest polygon that ``enumerate_dissections`` accepts.  A shape's
# base cells are planned one at a time, as the search asks for them, so
# the first dissection plans one base cell per sub-polygon it places.
# At N = 200, on a 2-core machine, the ``enumerate`` verb's first line
# takes 0.01-0.03 s with every cell allowed, every cell a quadrilateral
# (sizes {3, 4}, m = 99) or a pentagon (sizes {3, 5}, m = 66), and at
# N = 198 with every cell a hexagon.  What still grows with N is the
# mask arithmetic on N-bit masks (``reach`` and each plan's step masks)
# and what the line writer (``_line_writer``) of the ``enumerate`` and
# ``classes`` verbs builds for the first line: a table of N^2 chord
# names, and the sorted text of every prefix of its up to N - 3 chords.
# With the cap lifted, that line took 0.2-0.3 s and 97 MB at N = 1000,
# and about 1 s and 320 MB at N = 2000.  Raising the cap would change
# which calls the CLI refuses, so it stays.
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

    def allowed_sizes_upto(self, limit: int, less: int = 0) -> Sequence[int]:
        """The allowed sizes up to ``limit``, ascending, each minus
        ``less``: a range for all cells and ``ell``, so it takes O(1)
        time and memory whatever the limit."""
        if self.kind == "sizes":
            return sorted(t - less for t in self.sizes if t <= limit)
        return range(3 - less, limit + 1 - less, self.ell or 1)

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


# A planned gap of a base cell that holds a cell (two or more polygon
# edges), relative to the first vertex of its sub-polygon:
# (p, q, reach[q - p + 1], fits, corners, next).  ``fits`` holds the
# counts of the gap that the gaps after it can complete to a wanted
# total, before earlier gaps used any; ``corners`` is range(q - p + 1),
# the gap's corners relative to p, for when it is one cell; ``next`` is
# the base cell's next such gap, or None.
_Step = tuple[int, int, int, int, range, Optional["_Step"]]


def _reach_masks(n_vertices: int, allowed: Sequence[int]) -> list[int]:
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


def _base_cells(
    reach: list[int], allowed: Sequence[int], span: int, want: int
) -> Iterator[tuple[tuple[int, ...], Optional[_Step]]]:
    """Every base cell on the edge (0, span), of an allowed size, whose
    gaps can hold a total count in ``want``, by increasing size and then
    in lexicographic order of its corners, one at a time as asked for:
    (its corners, its first step)."""

    def extend(
        corners: tuple[int, ...], gaps: tuple[Chord, ...], left: int, rest: int
    ) -> Iterator[tuple[tuple[int, ...], Optional[_Step]]]:
        # ``left`` gaps follow the last corner; ``rest`` is the totals
        # they may have
        prev = corners[-1]
        if left == 1:
            if span - prev >= 2:
                gaps += ((prev, span),)
            step: Optional[_Step] = None  # its gaps, linked left to right
            suffix = 1  # the counts the gaps after this one can have
            for p, q in reversed(gaps):
                if step is not None:
                    suffix = _sumset(step[2], suffix)
                step = (p, q, reach[q - p + 1], _differences(want, suffix),
                        range(q - p + 1), step)
            yield corners + (span,), step
            return
        # k >= 1 consecutive gaps spanning r polygon edges, a gap of
        # span g being a sub-polygon on g + 1 vertices, hold the totals
        # of one sub-polygon on r - k + 2 vertices: the excesses add
        # up the same way, and a gap of span 1 holds nothing
        for c in range(prev + 1, span - left + 2):
            after = _differences(rest, reach[c - prev + 1])
            if reach[span - c - left + 3] & after:
                yield from extend(corners + (c,), gaps + ((prev, c),) if c - prev >= 2 else gaps,
                                  left - 1, after)

    for t in allowed:
        if t > span + 1:
            break
        if reach[span - t + 3] & want:  # its t - 1 gaps span the span edges
            yield from extend((0,), (), t - 1, want)


def _walk(
    n_vertices: int, m: Optional[int], cell_filter: CellFilter
) -> Iterator[tuple[list[Chord], list[tuple[int, Sequence[int]]], int]]:
    """The enumerator: an iterator over (chords, log, low) for every
    dissection of the N-gon with ``m`` cells (any count if None) under
    the filter, in the order of ``enumerate_dissections``.  The
    arguments are checked on the call, before any item is asked for.

    ``chords`` lists the dissection's chords in the order placed and
    ``log`` its cells, each as (shift, corners), the cell's vertices
    being shift plus each corner.  Both are the walk's working lists,
    valid until the next item is asked for.  ``low`` is how many chords
    it kept from the previous item: ``chords[:low]`` are the same
    objects as then, and so are ``log[:low]``, since at a cut the log
    holds the base cell and the cell inside each chord but the last.

    The chords come in pre-order: a chord, then the chords inside it,
    then those to its right.  So the chords with one left end are
    placed together, longest first, and those runs by increasing left
    end; each run reversed gives the sorted list (``_line_writer``).

    One loop over an explicit stack of choice points: sub-polygons whose
    wanted-count mask allows more than one cell.  An entry holds the
    sub-polygon's shape, with the base cells planned for it so far, the
    index of the next one, the sub-polygon's first vertex, the
    continuation and the length of ``chords``, and so of ``log``, on
    entry, to which it cuts both back before placing its next base
    cell; ``low`` is the least such length since the last item.  The
    continuation is the gaps of enclosing base cells still to fill, a
    linked list of (next step, first vertex, chord count before the
    base cell's gaps, enclosing continuation) that entries share.  It
    holds only base cells with a gap still to fill: a choice point on a
    base cell's last gap continues with the enclosing continuation, so
    finishing a sub-polygon never walks up through filled base cells.
    A gap whose mask allows exactly one cell is that cell, placed
    inline.
    """
    _check_range(n_vertices, m)
    if n_vertices > ENUMERATE_N_CAP:
        raise ResourceLimitError(
            f"a {n_vertices}-gon is over the enumeration cap of {ENUMERATE_N_CAP} vertices"
        )
    allowed = cell_filter.allowed_sizes_upto(n_vertices)
    reach = _reach_masks(n_vertices, allowed)

    # (span, gaps' wanted totals) -> (its base cells planned so far, the
    # ``_base_cells`` iterator that plans the rest).  A planned base cell
    # is (its corners relative to the shape's first vertex, those between
    # one-edge gaps included, its first step).  A choice point that has
    # used every planned base cell plans the next one, and pops when the
    # iterator ends.
    shapes: dict[tuple[int, int], tuple[list, Iterator]] = {}

    def shape_of(span: int, want: int) -> tuple[list, Iterator]:
        """The record of a sub-polygon shape, made on first use."""
        shape = shapes.get((span, want))
        if shape is None:
            shape = shapes[span, want] = ([], _base_cells(reach, allowed, span, want))
        return shape

    def search() -> Iterator[tuple[list[Chord], list[tuple[int, Sequence[int]]], int]]:
        chords: list[Chord] = []
        log: list[tuple[int, Sequence[int]]] = []
        low = 0  # the fewest chords kept since the last item
        want = 1 << m if m is not None else (1 << (n_vertices - 1)) - 2
        # the base cell is one of the cells, so its gaps want one fewer
        stack = [[shape_of(n_vertices - 1, want >> 1), 0, 0, None, 0]]
        while stack:
            point = stack[-1]
            shape, idx, lo, cont, n_chords = point
            planned, plans = shape
            if idx == len(planned):
                plan = next(plans, None)
                if plan is None:
                    stack.pop()
                    continue
                planned.append(plan)
            point[1] = idx + 1
            if n_chords < low:
                low = n_chords
            del chords[n_chords:]
            del log[n_chords:]
            corners, step = planned[idx]
            log.append((lo, corners))
            mark = n_chords  # the gaps of this base cell hold len(chords) - mark cells
            while True:  # fill gaps left to right up to the next choice point
                if step is None:
                    if cont is None:  # every gap is filled
                        yield chords, log, low
                        low = n_vertices  # over every cut to come
                        break
                    step, lo, mark, cont = cont  # on to an enclosing base cell
                    continue
                p, q, sub_reach, fits, run, step = step
                sub_want = sub_reach & (fits >> (len(chords) - mark))
                chords.append((lo + p, lo + q))
                if sub_want == 2:  # exactly one cell: the gap itself
                    log.append((lo + p, run))
                    continue
                # a base cell with no gap left to fill adds no node
                stack.append([shape_of(q - p, sub_want >> 1), 0, lo + p,
                              cont if step is None else (step, lo, mark, cont),
                              len(chords)])
                break

    return search()


def enumerate_dissections(
    n_vertices: int,
    m: Optional[int] = None,
    cell_filter: CellFilter = ALL_CELLS,
) -> Iterator[Dissection]:
    """Every dissection of the N-gon exactly once, in canonical form,
    restricted to ``m`` cells if given and to the size filter, as an
    iterator.

    The order is deterministic: base cells are chosen by increasing
    size then by vertex tuple, and sub-polygons fill left to right.
    Exact cell-count masks steer the search, so every branch it enters
    ends in at least one dissection.  A sub-polygon's base cells depend
    only on its shape, its span and wanted counts, so each shape's are
    planned once per call, one at a time as the search first needs
    each, with their gaps' masks, and replayed at every position it
    occurs; the plans, not the dissections, are kept.
    The search is one loop over an explicit stack of choice points
    (``_walk``), so each dissection is handed up once.  After a set-up
    polynomial in N, the time is proportional to the number of
    dissections yielded.
    The arguments are checked, and N over ``ENUMERATE_N_CAP`` refused,
    on the call, before any dissection is asked for.
    The ``enumerate`` verb reads the same walk through ``_texts``, which
    writes each line from the walk's chords without this iterator's
    ``Dissection`` objects.
    """
    walk = _walk(n_vertices, m, cell_filter)
    return (Dissection._trusted(n_vertices, chords) for chords, _, _ in walk)


def _line_writer(n_vertices: int) -> Callable[[list[Chord], int], str]:
    """The canonical text, ``str(d)``, of each item of one walk of the
    N-gon, from its ``chords`` and ``low``, with no sort and no join.

    The chords' pre-order is runs of one left end, so the sorted text
    of a prefix of k chords is ``done[k]``, the text of its finished
    runs (each followed by a comma), plus ``runs[k]``, that of its last
    run, whose left end is ``lefts[k]``.  Each line starts from entry
    ``low``, which the walk kept, and writes only the chords after it:
    one with the last run's left end is shorter than the run's, so its
    name goes in front; any other starts a run.  The chord names are
    looked up in a table of N^2 names made on this call."""
    names = [[f"{i}-{j}" for j in range(n_vertices)] for i in range(n_vertices)]
    # by prefix length k, up to the N - 3 chords of a triangulation
    done = [f"{n_vertices}:"] * (n_vertices - 2)
    runs = [""] * (n_vertices - 2)
    lefts = [-1] * (n_vertices - 2)

    def line(chords: list[Chord], low: int) -> str:
        text, run, left = done[low], runs[low], lefts[low]
        k = low
        for i, j in chords[low:]:
            k += 1
            if i == left:
                run = names[i][j] + "," + run
            else:
                if k > 1:  # close the run before it
                    text += run + ","
                run = names[i][j]
                left = i
            done[k] = text
            runs[k] = run
            lefts[k] = left
        return text + run

    return line


def _texts(
    n_vertices: int, m: Optional[int] = None, cell_filter: CellFilter = ALL_CELLS
) -> Iterator[str]:
    """The canonical text, ``str(d)``, of every dissection
    ``enumerate_dissections`` yields, in its order, each written by
    ``_line_writer`` from the chords it does not share with the line
    before.  The writer is made at the first line, so that asking for
    none builds no N^2 table.  The arguments are checked on the call."""
    walk = _walk(n_vertices, m, cell_filter)

    def lines() -> Iterator[str]:
        line = _line_writer(n_vertices)
        for chords, _, low in walk:
            yield line(chords, low)

    return lines()


def _carried_quiddities(
    n_vertices: int, m: Optional[int], cell_filter: CellFilter
) -> Iterator[tuple[list[Chord], tuple[int, ...], int]]:
    """(chords, quiddity entries, low) of every dissection
    ``enumerate_dissections`` yields, in its order, without ``quiddity()``.
    The arguments are checked on the call.

    The entries count each vertex's cells in the walk's log, and are
    checked against 1 + chord degree on every member, so the quiddity is
    still computed two independent ways; a mismatch is a bug in the
    walk's plans or log and raises at once.  ``chords`` and ``low`` are
    the walk's, ``chords`` valid until the next item is asked for.
    """
    walk = _walk(n_vertices, m, cell_filter)

    def members() -> Iterator[tuple[list[Chord], tuple[int, ...], int]]:
        for chords, log, low in walk:
            by_membership = [0] * n_vertices
            for lo, corners in log:
                for v in corners:
                    by_membership[lo + v] += 1
            by_degree = [1] * n_vertices
            for i, j in chords:
                by_degree[i] += 1
                by_degree[j] += 1
            if by_membership != by_degree:
                raise AssertionError(
                    f"quiddity self-check failed for "
                    f"{Dissection._trusted(n_vertices, chords)}: {by_membership} vs {by_degree}"
                )
            yield chords, tuple(by_membership), low

    return members()


def count_dissections(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of dissections of the N-gon into m cells passing the
    filter, from the composition formula (no materialization)."""
    _check_range(n_vertices, m)
    return formulas.dissection_count(
        n_vertices - 2, m, cell_filter.allowed_sizes_upto(n_vertices, less=2))


def _refuse_large_family(
    n_vertices: int, m: int, cell_filter: CellFilter, cap: int = FAMILY_CAP
) -> None:
    """Refuse, before enumerating, a family of more than ``cap``
    dissections by its closed-form count.  A count too long for Python
    to print is stated as the power of ten it reaches."""
    expected = count_dissections(n_vertices, m, cell_filter)
    if expected > cap:
        try:
            size = str(expected)
        except ValueError:  # over Python's limit on printing an int
            size = f"over 10^{int((expected.bit_length() - 1) * log10(2))}"
        raise ResourceLimitError(f"{size} dissections exceed the cap of {cap}")


def count_quiddities(
    n_vertices: int, m: int, cell_filter: CellFilter = ALL_CELLS
) -> int:
    """Number of distinct quiddity vectors over the enumerated family.
    Refuses families larger than ``FAMILY_CAP``."""
    _refuse_large_family(n_vertices, m, cell_filter)
    return len({entries for _, entries, _ in _carried_quiddities(n_vertices, m, cell_filter)})


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
    grouped: dict[tuple[int, ...], list[Dissection]] = {}
    for chords, entries, _ in _carried_quiddities(n_vertices, m, cell_filter):
        grouped.setdefault(entries, []).append(Dissection._trusted(n_vertices, chords))
    return {Quiddity(entries): tuple(ds) for entries, ds in grouped.items()}


def _class_texts(
    n_vertices: int, m: int, cell_filter: CellFilter, max_dissections: int
) -> dict[str, list[str]]:
    """``quiddity_classes`` as text, for the ``classes`` verb: each
    quiddity's text to its members' sorted texts, both written from the
    walk, the quiddity by ``_carried_quiddities`` and each member by
    ``_line_writer`` from the chords it does not share with the member
    before, so no ``Dissection`` or ``Quiddity`` is made per member.
    Refuses families larger than ``max_dissections``, and then the
    arguments the walk refuses, before the writer builds its N^2
    table."""
    _refuse_large_family(n_vertices, m, cell_filter, max_dissections)
    members = _carried_quiddities(n_vertices, m, cell_filter)
    line = _line_writer(n_vertices)
    grouped: dict[tuple[int, ...], list[str]] = {}
    for chords, entries, low in members:
        grouped.setdefault(entries, []).append(line(chords, low))
    return {",".join(map(str, entries)): sorted(texts) for entries, texts in grouped.items()}
