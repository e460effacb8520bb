"""Surgery moves on dissections and maximally-open canonical forms.

A surgery acts on a single cell: pick two boundary edges that are both
chords of the dissection and are separated on both sides by at least
two other edges of the cell, remove them, and add the unique
non-crossing re-pairing of their endpoints.  Surgery never changes the
quiddity.

With the polygon edge (0, N-1) designated as base, every cell gets a
base edge of its own: the edge through which the dual-tree path to the
base cell leaves (the polygon base edge for the base cell itself).
Cells list their vertices in increasing order, so that edge joins a
cell's first and last vertex.  A surgery is opening when it removes the
acting cell's base edge, and a 3-periodic dissection admitting no
3-periodic opening surgery is maximally open: the canonical
representative of its quiddity class.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import (
    Chord,
    Dissection,
    DomainError,
    ResourceLimitError,
    cells,
    quiddity,
)


@dataclass(frozen=True)
class SurgeryMove:
    """One legal surgery: the acting cell (with its index in
    :func:`cells`), the two removed chords and the two chords replacing
    them (all with sorted endpoints)."""

    cell_index: int
    cell: tuple[int, ...]
    removed: tuple[Chord, Chord]
    added: tuple[Chord, Chord]


def base_edge(cell: tuple[int, ...]) -> Chord:
    """The cell's edge toward the base cell: its closing edge (last,
    first), which spans all its other edges."""
    return (cell[0], cell[-1])


def base_distance(d: Dissection, cell: tuple[int, ...]) -> int:
    """Dual-tree distance from the cell to the base cell: the number of
    chords nesting the cell's base edge, that edge included."""
    lo, hi = base_edge(cell)
    return sum(1 for i, j in d.chords if i <= lo and hi <= j)


def find_surgeries(d: Dissection, require_3periodic: bool) -> list[SurgeryMove]:
    """All legal surgery moves on a dissection.

    With ``require_3periodic`` the input must be 3-periodic and only
    moves whose result is again 3-periodic are kept.
    """
    cs = cells(d)
    if require_3periodic and any(len(c) % 3 for c in cs):
        raise DomainError("3-periodic surgery needs a 3-periodic dissection")
    chords = set(d.chords)
    moves = []
    for idx, cell in enumerate(cs):
        t = len(cell)
        if t < 6:
            continue
        # edge k joins cell[k] and cell[(k + 1) % t]; the last is the
        # base edge.  A move re-pairs chord edges i < j with at least
        # two edges between them on both sides.  It cuts the cell into
        # arcs of j - i and t - (j - i) vertices and merges the two
        # cells beyond the chords into one of their summed size, so on
        # a 3-periodic input only j - i needs a test.
        edges = [*zip(cell, cell[1:]), (cell[0], cell[-1])]
        at = [k for k, e in enumerate(edges) if e in chords]
        for a, i in enumerate(at):
            for j in at[a + 1:]:
                if not 3 <= j - i <= t - 3 or (require_3periodic and (j - i) % 3):
                    continue
                p, q, r, s = cell[i], cell[i + 1], cell[j], cell[(j + 1) % t]
                removed = tuple(sorted((edges[i], edges[j])))
                added = tuple(sorted(((min(p, s), max(p, s)), (q, r))))
                moves.append(SurgeryMove(idx, cell, removed, added))
    return moves


def apply_surgery(
    d: Dissection, move: SurgeryMove, legal: Optional[list[SurgeryMove]] = None
) -> Dissection:
    """Apply a surgery move, returning the canonical result.

    Validates the move against ``legal``, the moves the caller already
    found on ``d`` (all of them, or any subset), or else against
    :func:`find_surgeries`.  Re-checks that every vertex keeps its
    chord degree, hence its quiddity entry (a cheap guarantee that the
    move really was a surgery)."""
    if legal is None:
        legal = find_surgeries(d, require_3periodic=False)
    if move not in legal:
        raise DomainError(f"move {move} is not legal for {d}")
    new_chords = [c for c in d.chords if c not in move.removed]
    new_chords.extend(move.added)
    result = Dissection(d.n_vertices, tuple(new_chords))
    if len(result.chords) != len(d.chords):
        raise AssertionError("surgery changed the chord count")
    if result.chord_degrees() != d.chord_degrees():
        raise AssertionError("surgery changed the quiddity")
    return result


def is_opening(move: SurgeryMove) -> bool:
    """True iff the move removes the base edge of its own cell.  The
    base cell's base edge is a polygon edge, so its moves never open."""
    return base_edge(move.cell) in move.removed


def opening_moves(d: Dissection) -> list[SurgeryMove]:
    """All 3-periodic opening surgeries available on a dissection."""
    return [mv for mv in find_surgeries(d, True) if is_opening(mv)]


def is_maximally_open(d: Dissection) -> bool:
    """True iff no 3-periodic opening surgery applies."""
    return not opening_moves(d)


def canonicalize_trace(
    d: Dissection, rng: Optional[random.Random] = None
) -> tuple[Dissection, tuple[SurgeryMove, ...]]:
    """Apply 3-periodic opening surgeries until none remains, returning
    the fixed point and the moves applied.

    The default policy opens the cells furthest from the base first,
    ties broken by the cell's smallest vertex, then by the added chords;
    passing an ``rng`` picks admissible moves at random instead (the
    fixed point must not depend on the choice, which the test suite
    verifies rather than assumes).  Each state's cells are extracted
    once.
    """
    applied = []
    limit = 2 * d.n_vertices * (len(d.chords) + 1) + 10
    for _ in range(limit):
        moves = opening_moves(d)
        if not moves:
            return d, tuple(applied)
        if rng is None:
            move = min(moves, key=lambda mv: (
                -base_distance(d, mv.cell), mv.cell[0], mv.added))
        else:
            move = rng.choice(sorted(moves, key=lambda mv: (mv.cell_index, mv.removed)))
        applied.append(move)
        d = apply_surgery(d, move, moves)
    raise AssertionError("opening surgeries did not terminate")


def canonicalize_maximally_open(
    d: Dissection, rng: Optional[random.Random] = None
) -> Dissection:
    """The maximally open dissection reached from ``d`` by repeated
    3-periodic opening surgeries."""
    result, _ = canonicalize_trace(d, rng)
    return result


def surgery_class(
    d: Dissection,
    require_3periodic: bool,
    max_states: int = 1_000_000,
) -> frozenset[Dissection]:
    """Closure of a dissection under (3-periodic) surgeries, by
    breadth-first search, extracting each state's cells once."""
    seen = {d}
    queue = deque([d])
    while queue:
        cur = queue.popleft()
        moves = find_surgeries(cur, require_3periodic)
        for mv in moves:
            nxt = apply_surgery(cur, mv, moves)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise ResourceLimitError(
                        f"surgery class exceeds the cap of {max_states} states"
                    )
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def class_export(d: Dissection, require_3periodic: bool = True) -> dict[str, object]:
    """JSON-ready view of a surgery class: the shared quiddity, all
    members, and (for 3-periodic classes) the maximally open member."""
    members = sorted(str(m) for m in surgery_class(d, require_3periodic))
    out: dict[str, object] = {
        "quiddity": str(quiddity(d)),
        "members": members,
    }
    if require_3periodic:
        out["maximally_open"] = str(canonicalize_maximally_open(d))
    else:
        out["maximally_open"] = None
    return out
