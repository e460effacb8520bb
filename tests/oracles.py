"""Independent brute-force oracles for the test suite.

These deliberately avoid the algorithms used by the package: cells are
found by recursive chord splitting instead of face walking, total
dissection counts come from a published three-term recurrence instead
of the generation recursion, the enumeration order is fixed by an
earlier generator that prunes by cell-count intervals instead of exact
masks, and fixed points of the series equations come from iterating
at the full truncation order with every shift done as a product.
Frozen copies of earlier validation and cell sweeps pin the messages
and the cell order of the chord-driven passes that replaced them.
A shape's base cells come from every corner set of every size, and
continued fractions from ``Fraction`` arithmetic one term at a time.
"""
from __future__ import annotations

import contextlib
import itertools
import random
from typing import Iterator, Optional

from fractions import Fraction

from quiddity.core import Chord, Dissection, DomainError
from quiddity.enumeration import CellFilter
from quiddity.series import BivariateSeries, Equation


def cells_by_splitting(d: Dissection) -> list[tuple[int, ...]]:
    """Cells as sorted-start counterclockwise cycles, found by cutting
    the polygon along one chord at a time."""

    def rec(boundary: list[int], chords: list[tuple[int, int]]) -> list[list[int]]:
        if not chords:
            return [boundary]
        a, b = chords[0]
        ia, ib = boundary.index(a), boundary.index(b)
        if ia > ib:
            ia, ib = ib, ia
        side1 = boundary[ia:ib + 1]
        side2 = boundary[ib:] + boundary[:ia + 1]
        rest = chords[1:]
        in1 = [c for c in rest if set(c) <= set(side1)]
        in2 = [c for c in rest if c not in in1]
        return rec(side1, in1) + rec(side2, in2)

    cycles = rec(list(range(d.n_vertices)), list(d.chords))
    out = []
    for cycle in cycles:
        k = cycle.index(min(cycle))
        out.append(tuple(cycle[k:] + cycle[:k]))
    return sorted(out, key=lambda c: (c[0], len(c), c))


def chords_by_left_end_sweep(n: int, chords) -> tuple[Chord, ...]:
    """The canonical chords of a dissection, or the ``DomainError`` the
    package must raise for them, by the validation it used before its
    two stable sorts: each chord normalized, range- and edge-checked in
    input order, then one stack sweep in (left end, longest first)
    order, from a key tuple per chord."""
    if n < 3:
        raise DomainError(f"polygon needs at least 3 vertices, got {n}")
    normalized = []
    for i, j in chords:
        if i > j:
            i, j = j, i
        if not (0 <= i < j <= n - 1):
            raise DomainError(f"chord {i}-{j} out of range for an {n}-gon")
        if j - i < 2 or (i, j) == (0, n - 1):
            raise DomainError(f"chord {i}-{j} is a polygon edge, not a diagonal")
        normalized.append((i, j))
    open_chords: list[Chord] = []
    for i, j in sorted(normalized, key=lambda c: (c[0], -c[1])):
        while open_chords and open_chords[-1][1] <= i:
            open_chords.pop()
        if open_chords and open_chords[-1] == (i, j):
            raise DomainError(f"duplicate chord {i}-{j}")
        if open_chords and open_chords[-1][1] < j:
            p, q = open_chords[-1]
            raise DomainError(f"chords {p}-{q} and {i}-{j} cross")
        open_chords.append((i, j))
    return tuple(sorted(normalized))


def crosses(a: Chord, b: Chord) -> bool:
    """Whether two chords with sorted ends cross: four distinct ends,
    exactly one end of b strictly inside the span of a."""
    (p, q), (r, s) = a, b
    if len({p, q, r, s}) < 4:
        return False
    return (p < r < q) != (p < s < q)


def valid_by_definition(n: int, chords) -> bool:
    """Whether the chords (ends in either order) dissect the N-gon, by
    checking every chord and every pair of chords: ends in range and
    not adjacent on the polygon, and no two chords equal or crossing."""
    pairs = [(min(c), max(c)) for c in chords]
    if n < 3 or len(set(pairs)) < len(pairs):
        return False
    for i, j in pairs:
        if i < 0 or j >= n or j - i in (0, 1, n - 1):
            return False
    return not any(crosses(a, b) for a, b in itertools.combinations(pairs, 2))


def sweep_by_vertices(d: Dissection) -> list[tuple[int, ...]]:
    """The cells in the order they close, by the package's earlier
    sweep: one Python step per vertex, with the chords bucketed by right
    end and each vertex's stack position kept in a list."""
    n = d.n_vertices
    ending: list[list[int]] = [[] for _ in range(n)]
    for i, j in d.chords:
        ending[j].append(i)
    stack: list[int] = []
    pos = [0] * n
    raw: list[tuple[int, ...]] = []
    for v in range(n):
        for i in reversed(ending[v]):
            p = pos[i]
            raw.append(tuple(stack[p:]) + (v,))
            del stack[p + 1:]
        pos[v] = len(stack)
        stack.append(v)
    raw.append(tuple(stack))
    return raw


def random_dissection(n: int, rng: random.Random, sizes=None) -> Dissection:
    """A random dissection of the N-gon: each sub-polygon lo..hi still
    to fill takes a base cell of a random size from ``sizes`` (every
    size if None) on random corners, and each gap of two or more edges
    between consecutive corners becomes a chord and a sub-polygon."""
    chords = []
    spans = [(0, n - 1)]
    while spans:
        lo, hi = spans.pop()
        t = rng.choice([t for t in sizes or range(3, hi - lo + 2) if t <= hi - lo + 1])
        corners = [lo, *sorted(rng.sample(range(lo + 1, hi), t - 2)), hi]
        for p, q in zip(corners, corners[1:]):
            if q - p >= 2:
                chords.append((p, q))
                spans.append((p, q))
    rng.shuffle(chords)
    return Dissection(n, tuple(chords))


def chord_sides(cycles: list[tuple[int, ...]]) -> dict[tuple[int, int], list[int]]:
    """For every edge of the given cells, the indices of the cells that
    have it as a boundary edge, in increasing order: two for a chord,
    one for a polygon edge."""
    sides: dict[tuple[int, int], list[int]] = {}
    for idx, cycle in enumerate(cycles):
        for k, u in enumerate(cycle):
            v = cycle[(k + 1) % len(cycle)]
            sides.setdefault((min(u, v), max(u, v)), []).append(idx)
    return sides


def surgery_moves_by_definition(
    d: Dissection, require_3periodic: bool
) -> list[tuple[int, tuple[Chord, Chord], tuple[Chord, Chord]]]:
    """Every surgery as (cell index, removed chords, added chords), from
    the definition alone: two chord edges of one splitting-oracle cell,
    with at least two cell edges between them on both sides, swapped
    for the other pairing of their ends that does not cross.  In
    3-periodic mode a move is kept iff the splitting oracle finds its
    result 3-periodic."""
    def pair(u: int, v: int) -> Chord:
        return (min(u, v), max(u, v))

    chords = set(d.chords)
    moves = []
    for idx, cycle in enumerate(cells_by_splitting(d)):
        t = len(cycle)
        edges = [(cycle[k], cycle[(k + 1) % t]) for k in range(t)]
        for i, j in itertools.combinations(range(t), 2):
            (a, b), (c, e) = edges[i], edges[j]
            if pair(a, b) not in chords or pair(c, e) not in chords:
                continue
            if j - i - 1 < 2 or t - (j - i) - 1 < 2:
                continue
            removed = tuple(sorted((pair(a, b), pair(c, e))))
            added = tuple(sorted((pair(a, e), pair(b, c))))
            if require_3periodic:
                result = Dissection(d.n_vertices, tuple((chords - set(removed)) | set(added)))
                if any(len(cell) % 3 for cell in cells_by_splitting(result)):
                    continue
            moves.append((idx, removed, added))
    return moves


def total_dissections(n: int) -> int:
    """Number of dissections of the (n+2)-gon over all cell counts
    (the super-Catalan/little Schroeder sequence), via the recurrence
    (n+1) s(n) = 3(2n-1) s(n-1) - (n-2) s(n-2)."""
    values = [1, 1]
    for k in range(2, n + 1):
        values.append((3 * (2 * k - 1) * values[-1] - (k - 2) * values[-2]) // (k + 1))
    return values[n]


def reach_and_chain_by_sumsets(
    n_vertices: int, allowed: list[int]
) -> tuple[list[set[int]], list[list[set[int]]]]:
    """The cell counts reachable by a sub-polygon on s vertices,
    reach[s], and by k consecutive gaps spanning r polygon edges,
    chain[k][r], as sets, by summing over every split of the span into
    gaps (the enumerator's construction before it read both off the
    excesses)."""
    reach: list[set[int]] = [set(), set(), {0}] + [set() for _ in range(n_vertices - 2)]
    chain = [[{0}] + [set() for _ in range(n_vertices - 1)]] + [
        [set() for _ in range(n_vertices)] for _ in range(max(allowed, default=2) - 1)]
    for r in range(1, n_vertices):
        for k in range(2, min(len(chain), r + 1)):
            chain[k][r] = {x + y for g in range(1, r - k + 2)
                           for x in reach[g + 1] for y in chain[k - 1][r - g]}
        if r >= 2:
            reach[r + 1] = {c + 1 for t in allowed if t <= r + 1 for c in chain[t - 1][r]}
        chain[1][r] = reach[r + 1]
    return reach, chain


def _mask(counts: set[int]) -> int:
    return sum(1 << c for c in counts)


def base_cells_by_corner_sets(
    reach: list[set[int]], allowed, span: int, want: set[int]
) -> list[tuple[int, Optional[tuple]]]:
    """The enumerator's plans of the shape (span, want), from every
    corner set of every allowed size t, ordered by (t, corners): each
    corner set whose t - 1 gaps, a gap of span g holding the counts
    reach[g + 1], have counts summing into ``want``, as (its corners
    packed, a byte each, summed over the corners; its gaps of span 2 or
    more linked left to right as (p, q, reach, the counts that the later
    such gaps can complete into ``want``, p..q packed, next)).  Every
    set of counts is a set of ints until it is written as a mask."""
    out = []
    for t in allowed:
        for inner in itertools.combinations(range(1, span), t - 2):
            corners = (0, *inner, span)
            gaps = list(zip(corners, corners[1:]))
            totals = {0}
            for p, q in gaps:
                totals = {x + y for x in totals for y in reach[q - p + 1]}
            if not totals & want:
                continue
            step = None
            suffix = {0}  # the totals of the later gaps of span 2 or more
            for p, q in reversed(gaps):
                if q - p >= 2:
                    fits = {y for y in range(max(want) + 1)
                            if any(y + x in want for x in suffix)}
                    step = (p, q, _mask(reach[q - p + 1]), _mask(fits),
                            sum(1 << 8 * k for k in range(q - p + 1)), step)
                    suffix = {x + y for x in suffix for y in reach[q - p + 1]}
            out.append((sum(1 << 8 * v for v in corners), step))
    return out


def enumerate_by_interval_bounds(
    n_vertices: int, m: Optional[int], cell_filter: CellFilter
) -> Iterator[tuple[Chord, ...]]:
    """The sorted chords of every dissection the package's enumerator
    must yield, in the order it must yield them: base cells by size,
    then by vertex tuple, sub-polygons filled left to right.  Tries
    every base cell and prunes by (inexact) cell-count intervals."""
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
            yield tuple(sorted(chords))


@contextlib.contextmanager
def shifts_by_monomial_products():
    """Within the block, ``BivariateSeries.shift`` multiplies by a
    monomial instead of moving rows."""
    moving = BivariateSeries.shift
    BivariateSeries.shift = lambda s, dz, dw: s * BivariateSeries.monomial(s.order, dz, dw)
    try:
        yield
    finally:
        BivariateSeries.shift = moving


def solve_at_full_order(equation: Equation, order: int) -> BivariateSeries:
    """The fixed point of S = F(S) from order+1 iterations of F, each
    at the full truncation order and with shifts done as products,
    starting from S = 1: the k-th iteration fixes the z^(k-1) row."""
    with shifts_by_monomial_products():
        s = BivariateSeries.one(order)
        for _ in range(order + 1):
            s = equation(s)
    return s


def eval_regular_by_fractions(terms) -> Fraction:
    """a_1 + 1/(a_2 + 1/(...)), one ``Fraction`` step per term."""
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def eval_hj_by_fractions(terms) -> Fraction:
    """c_1 - 1/(c_2 - 1/(...)), one ``Fraction`` step per term."""
    value = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        value = c - 1 / value
    return value


def hj_terms_by_fractions(value: Fraction) -> tuple[int, ...]:
    """The minus-sign terms of a rational > 1 by ceiling division on
    ``Fraction``s: c = ceil(value), then on to 1/(c - value); the
    package's ``DomainError`` for a value of at most 1."""
    if value <= 1:
        raise DomainError(f"minus-sign expansion needs a value > 1, got {value}")
    terms = []
    while True:
        c = -((-value.numerator) // value.denominator)
        terms.append(c)
        rest = c - value
        if rest == 0:
            return tuple(terms)
        value = 1 / rest
