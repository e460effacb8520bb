"""Independent brute-force oracles for the test suite.

These deliberately avoid the algorithms used by the package: cells are
found by recursive chord splitting instead of face walking, and total
dissection counts come from a published three-term recurrence instead
of the generation recursion.
"""
from __future__ import annotations

from quiddity.core import Dissection


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


def total_dissections(n: int) -> int:
    """Number of dissections of the (n+2)-gon over all cell counts
    (the super-Catalan/little Schroeder sequence), via the recurrence
    (n+1) s(n) = 3(2n-1) s(n-1) - (n-2) s(n-2)."""
    values = [1, 1]
    for k in range(2, n + 1):
        values.append((3 * (2 * k - 1) * values[-1] - (k - 2) * values[-2]) // (k + 1))
    return values[n]
