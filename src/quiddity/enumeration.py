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
on its shape: its span and its wanted counts, not its position.  So a
plan table, keyed by shape, lists them relative to the sub-polygon's
first vertex, one at a time, each when the search first asks for it;
every later sub-polygon of the shape replays the plan shifted to its
position.  A sub-polygon of at most ``FILL_SPAN`` + 1 vertices goes
further: the first time the search fills it at a position, it records
the chords and cells it places for each of its dissections there, and
every later time it writes each recorded fill back whole.  Plans and
fills are made as the search reaches them, never whole dissections,
so generation still streams, and the first dissection plans one base
cell per sub-polygon it places.

The finished plans and fills of a filter are kept, per process, for
the later walks of the same filter (those of the last ``TABLES_KEPT``
filters used): a session that asks for several families of one filter
plans each shape once.  Only finished, immutable tuples are kept;
what a walk is still making stays with that walk, so walks of one
filter may run at once, in one thread or several.

The search is one loop over an explicit stack (compare the stack-based
generation of nested structures in Knuth, TAOCP 4A, 7.2.1.6).  A stack
entry is a choice point, a sub-polygon whose mask allows more than one
cell; a gap that must be exactly one cell is placed inline.  Each
dissection is handed up once, from that one loop.  The loop also logs
every cell it places, as its shift and its corners packed into one
integer, a byte per corner, made once with the plan or gap it comes
from.  So the family functions read each member's quiddity off the log
as one integer, a byte per vertex, cross-checked against one made from
1 + chord degree, and key their sets and classes on its bytes.

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

import functools
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import formulas
from .core import (
    Chord,
    Dissection,
    DomainError,
    Quiddity,
    ResourceLimitError,
    Value,
)

# Largest family, by its closed-form count, that ``count_quiddities``
# and, by default, ``quiddity_classes`` enumerate, and so the
# ``quiddities`` and ``classes`` verbs.  It admits every family of an
# N-gon with N <= 11.  As commands, interpreter start-up included, on a
# 2-core machine with Python 3.11, the largest, 32,032 dissections of
# the 11-gon into 7 cells, takes 0.2 s for ``quiddities`` and 0.3-0.35 s
# for ``classes`` (70 ms and 0.17 s of it in the verb).
# Few-cell families of larger polygons cost more per member, since they
# plan more shapes and a quiddity has N entries: for the 27-gon into 3
# cells (34,776), ``quiddities`` takes 0.32-0.34 s and ``classes``
# 0.44-0.47 s; most of the verb's time is the walk planning shapes,
# which a warm walk reads from the kept table in a seventh of the time.
FAMILY_CAP = 35_000

# Largest polygon that ``enumerate_dissections`` accepts.  A shape's
# base cells are planned one at a time, as the search asks for them,
# and a small sub-polygon's fills are recorded as the search places
# them, so the first dissection plans one base cell per sub-polygon it
# places.  At N = 200, on a 2-core machine, the ``enumerate`` verb's
# first line takes 2-5 ms with every cell allowed, every cell a
# quadrilateral (sizes {3, 4}, m = 99) or a pentagon (sizes {3, 5},
# m = 66), and at N = 198 with every cell a hexagon.  What still grows
# with N is the mask arithmetic on N-bit masks (``reach`` and each
# plan's step masks) and the sorted text of every prefix of the first
# line's up to N - 3 chords, which the line writer (``_line_writer``) of
# the ``enumerate`` and ``classes`` verbs keeps; it names only the
# chords it writes.  With the cap lifted, that line took 0.1 s and 34 MB
# at N = 1000, and 0.4 s and 73 MB at N = 2000.  Raising the cap would
# change which calls the CLI refuses, so it stays.
ENUMERATE_N_CAP = 200

# The walk logs each cell as its corners packed into one integer, one
# byte per corner offset: corner c adds 1 << (_BYTE * c).  Shifted to
# their place and summed over a dissection's cells, the packed cells
# give one byte per vertex, the cells it lies in: its quiddity entry
# (``_carried_quiddities``).  The log holds the base cell and one cell
# per chord, at most N - 2 in all, and a vertex is the end of at most
# N - 3 chords, so neither count of a vertex passes N - 2, even when the
# walk is wrong: no byte carries into the next while N - 2 fits in one.
# At ENUMERATE_N_CAP the largest entry is 198.
_BYTE = 8
if ENUMERATE_N_CAP - 2 >= 1 << _BYTE:
    raise RuntimeError(
        f"quiddity entries up to {ENUMERATE_N_CAP - 2} do not fit in {_BYTE}-bit bytes")
# _RUNS[k]: the packed corners 0, 1, ..., k - 1, a one-cell gap on k
# vertices and, for k = N, a byte of 1 at every vertex
_RUNS = tuple(int.from_bytes(b"\1" * k, "little") for k in range(ENUMERATE_N_CAP + 1))
# _DECIMAL[b]: the text of a quiddity entry b, for the keys of ``_class_texts``
_DECIMAL = tuple(str(b) for b in range(1 << _BYTE))

# Sub-polygons of up to FILL_SPAN + 1 vertices are written from
# recorded fills (``_walk``).  Timed on the benchmark's families session
# in one process, 12 alternating pairs against 4: at 3 the session took
# 6% longer; at 5 and 6 it took 3-5% less, within the noise, while a
# first walk of the octagon's 132 triangulations took 38% longer at 6,
# recording fills it seldom writes back.
FILL_SPAN = 4
# The filters whose finished plans and fills are kept for later walks,
# the least recently used dropped first.  The benchmark's families
# session walks 12 filters in 210 walks, 133 of them by the verify-all
# suite run in one process: keeping 12 or more re-plans no filter,
# keeping 8 re-plans 24 times.  Its tables take about 0.8 MB
# (tracemalloc, measured by clearing them); the one table of
# ``classes --n 27 --m 3`` takes 5.1 MB, most of it plans.  The tables
# are ``_table``'s cache, so ``_table.cache_info()`` gives its hits,
# misses and the filters kept.
TABLES_KEPT = 16
_NO_MORE: Iterator = iter(())


def _integer(value: object, what: str) -> int:
    """``value`` as an int, or DomainError if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None


class CellFilter(Value):
    """Restriction on the allowed cell sizes of a dissection.

    ``kind`` is "all", "ell" (every size congruent to 3 mod ``ell``) or
    "sizes" (every size in the finite set ``sizes``, kept as a
    frozenset); a kind refuses the field it does not use.  Equal-size
    families are the one-element "sizes" case."""

    __slots__ = _fields = ("kind", "ell", "sizes")

    def __init__(
        self, kind: str = "all", ell: int | None = None, sizes: Iterable[int] | None = None
    ) -> None:
        if kind == "ell":
            ell = None if ell is None else _integer(ell, "period")
            if ell is None or ell < 1:
                raise DomainError(f"period must be at least 1, got {ell}")
        elif kind == "sizes":
            sizes = frozenset(_integer(s, "cell size") for s in sizes or ())
            if not sizes:
                raise DomainError("size set must be nonempty")
            if any(s < 3 for s in sizes):
                raise DomainError("cell sizes must be at least 3")
        elif kind != "all":
            raise DomainError(f"unknown filter kind {kind!r}")
        for name, value in (("ell", ell), ("sizes", sizes)):  # each kind but "all" names its field
            if value is not None and kind != name:
                raise DomainError(f"filter kind {kind!r} takes no {name}, got {name}={value}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def all_cells(cls) -> "CellFilter":
        return cls("all")

    @classmethod
    def ell_periodic(cls, ell: int) -> "CellFilter":
        return cls("ell", ell=ell)

    @classmethod
    def size_set(cls, sizes) -> "CellFilter":
        return cls("sizes", sizes=sizes)

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


def _check_range(n_vertices: int, m: int | None) -> None:
    if n_vertices < 3:
        raise DomainError(f"polygon needs at least 3 vertices, got {n_vertices}")
    if m is not None and not 1 <= m <= n_vertices - 2:
        raise DomainError(
            f"cell count {m} out of range [1, {n_vertices - 2}] for an {n_vertices}-gon"
        )


def _check_walkable(n_vertices: int, m: int | None) -> None:
    """Refuse arguments out of range, then a polygon over
    ``ENUMERATE_N_CAP``, which no walk takes: a check that costs no
    count and no table."""
    _check_range(n_vertices, m)
    if n_vertices > ENUMERATE_N_CAP:
        raise ResourceLimitError(
            f"a {n_vertices}-gon is over the enumeration cap of {ENUMERATE_N_CAP} vertices"
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
# (p, q, reach[q - p + 1], fits, cell, next).  ``fits`` holds the
# counts of the gap that the gaps after it can complete to a wanted
# total, before earlier gaps used any; ``cell`` is _RUNS[q - p + 1],
# the gap's corners relative to p packed, for when it is one cell;
# ``next`` is the base cell's next such gap, or None.
_Step = tuple


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
) -> Iterator[tuple[tuple[int, ...], _Step | None]]:
    """Every base cell on the edge (0, span), of an allowed size, whose
    gaps can hold a total count in ``want``, by increasing size and then
    in lexicographic order of its corners, one at a time as asked for:
    (its corners packed, one byte each, its first step).

    A depth-first search over the corners, one loop over the stack of
    corners placed, the totals the gaps after each may have and the
    corners up to each packed, so a cell found is that packed prefix
    plus the corner ``span``.  A one-edge gap holds no cell
    (``reach[2]`` is 1), so a corner next to the last leaves the totals
    as they were, with no mask work."""
    for t in allowed:
        if t > span + 1:
            break
        if not reach[span - t + 3] & want:  # its t - 1 gaps span the span edges
            continue
        corners = [0]
        rests = [want]
        packs = [1]  # the corners placed, packed
        c = 1  # the next candidate for the corner after the last
        while True:
            prev = corners[-1]
            left = t - len(corners)  # the gaps that follow the last corner
            if left > 1:
                # k >= 1 consecutive gaps spanning r polygon edges, a gap
                # of span g being a sub-polygon on g + 1 vertices, hold
                # the totals of one sub-polygon on r - k + 2 vertices: the
                # excesses add up the same way, and a gap of span 1 holds
                # nothing
                rest = rests[-1]
                while c <= span - left + 1:
                    after = rest if c == prev + 1 else _differences(rest, reach[c - prev + 1])
                    if reach[span - c - left + 3] & after:
                        corners.append(c)
                        rests.append(after)
                        packs.append(packs[-1] + (1 << _BYTE * c))
                        break
                    c += 1
                else:
                    c = 0  # no corner fits: back up
                if c:
                    c += 1
                    continue
            else:
                step: _Step | None = None  # its gaps, linked left to right
                suffix = 1  # the counts the gaps after this one can have
                q = span
                for p in reversed(corners):
                    if q - p >= 2:
                        if step is not None:
                            suffix = _sumset(step[2], suffix)
                        step = (p, q, reach[q - p + 1], _differences(want, suffix),
                                _RUNS[q - p + 1], step)
                    q = p
                yield packs[-1] + (1 << _BYTE * span), step
            if len(corners) == 1:
                break
            c = corners.pop() + 1
            rests.pop()
            packs.pop()


@functools.lru_cache(maxsize=TABLES_KEPT)
def _table(cell_filter: CellFilter) -> tuple[dict, dict]:
    """The filter's kept table, (finished plans by shape, finished fills
    by shape and base vertex), made on first use; the least recently
    used table past ``TABLES_KEPT`` is dropped.  A second thread that
    misses at the same moment may get a fresh table of its own, which
    changes no output, since a kept table only saves planning."""
    return {}, {}


def clear_tables() -> None:
    """Drop the plans and fills kept for every filter, so that the next
    walk of each filter plans its shapes and records its fills from
    none, as the first walk in a process does.  A walk already running
    keeps the table it holds to its end; its output is the same either
    way, since a kept table only saves planning."""
    _table.cache_clear()


def _walk(
    n_vertices: int, m: int | None, cell_filter: CellFilter
) -> Iterator[tuple[list[Chord], list[tuple[int, int]], int]]:
    """The enumerator: an iterator over (chords, log, low) for every
    dissection of the N-gon with ``m`` cells (any count if None) under
    the filter, in the order of ``enumerate_dissections``.  The
    arguments are checked on the call, before any item is asked for.

    ``chords`` lists the dissection's chords in the order placed and
    ``log`` its cells, each as (shift, packed cell): the cell's vertices
    are shift plus each corner c, and the packed cell is the sum of
    1 << (8 * c) over its corners (``_BYTE``), made once, when its plan
    or step is made, and shared by every cell logged from it.  So
    ``packed << (8 * shift)`` has a byte of 1 at each of the cell's
    vertices, and summed over the log, one byte per vertex counts its
    cells.  Both are the walk's working lists,
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
    sub-polygon's record (its items made so far, and the iterator that
    makes the rest), the index of its next item, the sub-polygon's first
    vertex, the continuation and the length of ``chords``, and so of
    ``log``, on entry, to which it cuts both back before placing its next
    item; ``low`` is the least such length since the last item.  A
    choice point places its first item as it is pushed.  The
    continuation is the gaps of enclosing base cells still to fill, a
    linked list of (next step, first vertex, chord count before the
    base cell's gaps, enclosing continuation) that entries share.  It
    holds only base cells with a gap still to fill: a choice point on a
    base cell's last gap continues with the enclosing continuation, so
    finishing a sub-polygon never walks up through filled base cells.
    A gap whose mask allows exactly one cell is that cell, placed
    inline.

    An item is a planned base cell of the sub-polygon's shape, or, on a
    sub-polygon of at most ``FILL_SPAN`` + 1 vertices whose fills are
    recorded, a whole fill (the first vertex -1 marks such an entry): one
    of its dissections, as the chords and log entries the walk placed
    for it.  The first time the walk reaches such a sub-polygon, it
    walks it by its plans, with a node (None, (its key, fills so far),
    chord count on entry, continuation) in front of the continuation;
    each time it reaches that node the sub-polygon is filled, and the
    fill is recorded from where it differs from the one before, as
    (that index from the entry, the chords and log entries from there):
    the entries before are the one before's own objects.  Writing a
    fill back cuts there and adds the rest, so ``low`` and the kept
    objects are those of the walk by plans.  A sub-polygon with kept
    fills that is the last gap, with nothing after it to fill, pushes no
    entry: its fills are members one after another, so a local loop
    cuts to where each differs from the one before, writes it and hands
    it up, one pass of the outer loop for all of them.

    Plans are made as the search first asks for them, so the first
    dissection plans one base cell per sub-polygon it places.  A plan
    record that runs to its end, and a sub-polygon's fills when its
    choice point pops, go as tuples into the filter's kept table
    (``_table``), which later walks of the filter read instead of
    planning and recording again; what is still being made stays with
    this walk.
    """
    _check_walkable(n_vertices, m)
    allowed = cell_filter.allowed_sizes_upto(n_vertices)
    reach = _reach_masks(n_vertices, allowed)
    kept_plans, kept_fills = _table(cell_filter)
    # this walk's shape records: (span, gaps' wanted totals) -> (the base
    # cells planned so far, the iterator that plans the rest), a tuple
    # and no more when the kept table has them.  A planned base cell is
    # (its corners relative to the shape's first vertex, those between
    # one-edge gaps included, packed, its first step).  A choice point
    # that has used every item made asks the iterator for the next one,
    # and pops when it ends; one that writes fills holds (the recorded
    # fills, no more).
    shapes: dict[tuple[int, int], tuple[Sequence, Iterator]] = {}

    def planning(key: tuple[int, int], planned: list) -> Iterator:
        yield from _base_cells(reach, allowed, *key)
        kept_plans[key] = tuple(planned)

    def shape_of(span: int, want: int) -> tuple[Sequence, Iterator]:
        """The record of a sub-polygon shape, made on first use."""
        key = (span, want)
        shape = shapes.get(key)
        if shape is None:
            planned = kept_plans.get(key)
            if planned is None:
                planned = []
                shape = (planned, planning(key, planned))
            else:
                shape = (planned, _NO_MORE)
            shapes[key] = shape
        return shape

    def search() -> Iterator[tuple[list[Chord], list[tuple[int, int]], int]]:
        chords: list[Chord] = []
        log: list[tuple[int, int]] = []
        low = 0  # the fewest chords kept since the last item
        want = 1 << m if m is not None else (1 << (n_vertices - 1)) - 2
        # the base cell is one of the cells, so its gaps want one fewer
        stack = [[shape_of(n_vertices - 1, want >> 1), 0, 0, None, 0]]
        while stack:
            point = stack[-1]
            record, idx, lo, cont, n_chords = point
            done, more = record
            if idx == len(done):
                plan = next(more, None)
                if plan is None:
                    stack.pop()
                    if cont is not None and cont[0] is None and cont[2] == n_chords:
                        key, filled = cont[1]  # it recorded its sub-polygon's fills
                        kept_fills[key] = tuple(filled)
                    continue
                done.append(plan)
            point[1] = idx + 1
            if lo < 0:  # a whole fill, written from where it differs
                same, new_chords, new_log = done[idx]
                n_chords += same
                if n_chords < low:
                    low = n_chords
                chords[n_chords:] = new_chords
                log[n_chords:] = new_log
                step = None
            else:
                if n_chords < low:
                    low = n_chords
                del chords[n_chords:]
                del log[n_chords:]
                cell, step = done[idx]
                log.append((lo, cell))
                mark = n_chords  # the gaps of this base cell hold len(chords) - mark cells
            while True:  # fill gaps left to right up to the next choice point
                if step is None:
                    if cont is None:  # every gap is filled
                        yield chords, log, low
                        low = n_vertices  # over every cut to come
                        break
                    step, lo, mark, cont = cont  # on to an enclosing base cell
                    if step is None:  # a recorded sub-polygon, from mark on, is filled
                        start = low if low > mark else mark
                        lo[1].append((start - mark, tuple(chords[start:]), tuple(log[start:])))
                    continue
                p, q, sub_reach, fits, cell, step = step
                sub_want = sub_reach & (fits >> (len(chords) - mark))
                chords.append((lo + p, lo + q))
                if sub_want == 2:  # exactly one cell: the gap itself
                    log.append((lo + p, cell))
                    continue
                # a base cell with no gap left to fill adds no node
                after = cont if step is None else (step, lo, mark, cont)
                n_chords = len(chords)
                if q - p <= FILL_SPAN:
                    key = (q - p, sub_want >> 1, lo + p)
                    filled = kept_fills.get(key)
                    if filled is None:  # walked, and its fills recorded
                        after = (None, (key, []), n_chords, after)
                    elif after is None:  # the last gap: each fill is a member
                        for same, new_chords, new_log in filled:
                            cut = n_chords + same
                            if cut < low:
                                low = cut
                            chords[cut:] = new_chords
                            log[cut:] = new_log
                            yield chords, log, low
                            low = n_vertices
                        break
                    else:  # its first fill, whole
                        stack.append([(filled, _NO_MORE), 1, -1, after, n_chords])
                        _, new_chords, new_log = filled[0]
                        chords += new_chords
                        log += new_log
                        step = None
                        cont = after
                        continue
                # its first base cell; the exact masks leave it one at least
                record = shape_of(q - p, sub_want >> 1)
                done = record[0]
                if not done:
                    done.append(next(record[1]))
                lo += p
                stack.append([record, 1, lo, after, n_chords])
                cell, step = done[0]
                log.append((lo, cell))
                mark = n_chords
                cont = after

    return search()


def enumerate_dissections(
    n_vertices: int, m: int | None = None, cell_filter: CellFilter = ALL_CELLS
) -> Iterator[Dissection]:
    """Every dissection of the N-gon exactly once, in canonical form,
    restricted to ``m`` cells if given and to the size filter, as an
    iterator.

    The order is deterministic: base cells are chosen by increasing
    size then by vertex tuple, and sub-polygons fill left to right.
    Exact cell-count masks steer the search, so every branch it enters
    ends in at least one dissection.  A sub-polygon's base cells depend
    only on its shape, its span and wanted counts, so each shape's are
    planned once per filter in a process, one at a time as the search
    first needs each, with their gaps' masks, and replayed at every
    position it occurs; a small sub-polygon's dissections at a position
    are recorded the first time and written back whole after that.  The
    plans and fills, not the dissections, are kept.
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
    name goes in front; any other starts a run.  Each chord's name is
    made the first time it is written, into a row of its left end's
    names, made when a run first starts there, so a line costs no table
    of every chord of the N-gon."""
    names: list[list[str | None] | None] = [None] * n_vertices
    # by prefix length k, up to the N - 3 chords of a triangulation
    done = [f"{n_vertices}:"] * (n_vertices - 2)
    runs = [""] * (n_vertices - 2)
    lefts = [-1] * (n_vertices - 2)

    def line(chords: list[Chord], low: int) -> str:
        text, run, left = done[low], runs[low], lefts[low]
        row = names[left]  # made when the run began, or unused
        k = low
        for i, j in chords[low:]:
            k += 1
            if i == left:
                name = row[j]
                if name is None:
                    name = row[j] = f"{i}-{j}"
                run = name + "," + run
            else:
                if k > 1:  # close the run before it
                    text += run + ","
                row = names[i]
                if row is None:
                    row = names[i] = [None] * n_vertices
                run = row[j]
                if run is None:
                    run = row[j] = f"{i}-{j}"
                left = i
            done[k] = text
            runs[k] = run
            lefts[k] = left
        return text + run

    return line


def _texts(
    n_vertices: int, m: int | None = None, cell_filter: CellFilter = ALL_CELLS
) -> Iterator[str]:
    """The canonical text, ``str(d)``, of every dissection
    ``enumerate_dissections`` yields, in its order, each written by
    ``_line_writer`` from the chords it does not share with the line
    before.  The arguments are checked on the call."""
    walk = _walk(n_vertices, m, cell_filter)
    line = _line_writer(n_vertices)
    return (line(chords, low) for chords, _, low in walk)


def _carried_quiddities(
    n_vertices: int, m: int | None, cell_filter: CellFilter
) -> Iterator[tuple[list[Chord], bytes, int]]:
    """(chords, quiddity entries, low) of every dissection
    ``enumerate_dissections`` yields, in its order, without ``quiddity()``.
    The entries are ``bytes``, one per vertex: iterated, they give the
    entries, and they sort as the entries' tuples do.  The arguments
    are checked on the call.

    Each member's entries are two integers of one byte per vertex
    (``_BYTE``): by membership, the sum of each logged cell's packed
    corners shifted to its place, and by 1 + chord degree, a 1 at every
    vertex plus a unit at each end of each chord.  They are compared on
    every member, so the quiddity is still computed two independent
    ways; a mismatch is a bug in the walk's plans or log and raises at
    once.  ``chords`` and ``low`` are the walk's, ``chords`` valid until
    the next item is asked for.
    """
    walk = _walk(n_vertices, m, cell_filter)
    ones = _RUNS[n_vertices]
    units = [1 << _BYTE * v for v in range(n_vertices)]

    def members() -> Iterator[tuple[list[Chord], bytes, int]]:
        for chords, log, low in walk:
            by_membership = 0
            for shift, cell in log:
                by_membership += cell << _BYTE * shift
            by_degree = ones
            for i, j in chords:
                by_degree += units[i] + units[j]
            if by_membership != by_degree:
                raise AssertionError(
                    f"quiddity self-check failed for "
                    f"{Dissection._trusted(n_vertices, chords)}: "
                    f"{list(by_membership.to_bytes(n_vertices, 'little'))} vs "
                    f"{list(by_degree.to_bytes(n_vertices, 'little'))}"
                )
            yield chords, by_membership.to_bytes(n_vertices, "little"), low

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
    """Refuse, before enumerating, what the walk would refuse, and then
    a family of more than ``cap`` dissections by its closed-form count,
    so no count is built for a polygon the walk cannot take.  Under
    ``ENUMERATE_N_CAP`` the count has at most 147 digits, so it prints."""
    _check_walkable(n_vertices, m)
    expected = count_dissections(n_vertices, m, cell_filter)
    if expected > cap:
        raise ResourceLimitError(f"{expected} dissections exceed the cap of {cap}")


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
    grouped: dict[bytes, list[Dissection]] = {}
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
    arguments the walk refuses, before the writer is made."""
    _refuse_large_family(n_vertices, m, cell_filter, max_dissections)
    members = _carried_quiddities(n_vertices, m, cell_filter)
    line = _line_writer(n_vertices)
    grouped: dict[bytes, list[str]] = {}
    for chords, entries, low in members:
        grouped.setdefault(entries, []).append(line(chords, low))
    return {",".join([_DECIMAL[e] for e in entries]): sorted(texts)
            for entries, texts in grouped.items()}
