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

A dissection's cells are swept once and kept on it (``core.cells``), so
the move search, canonicalization, the class search and the
maximally-open test share one sweep of their input.  Canonicalization
and the class search carry each state's cells from move to move
(``_cells_after``), never storing them on a member: the acting cell
splits into two arcs and the two cells beyond the removed chords merge.
Canonicalization applies the first opening move in cells order, read
off the cells by a rule local to each cell (``_opening``), until none
remains; any order ends at the class's one maximally open member.
``opening_moves`` and ``is_maximally_open`` keep to the full move
search, as an independent check of that rule.  Each class member is
validated once.
"""
from __future__ import annotations

from bisect import insort
from collections import deque
from collections.abc import Iterator, Sequence

from .core import (
    Chord,
    Dissection,
    DomainError,
    ResourceLimitError,
    Value,
    cells,
    quiddity,
)

# Work that ``surgery_class`` charges each member, in moves tried: a
# move tried costs O(N) (a new chord tuple), and a member costs about
# eight of them (validating its Dissection, its chord degrees twice,
# its cells and its move search), on triangle fans and chains alike.
SURGERY_STATE_MOVES = 8

# Largest work, in moves tried times N, that ``surgery_class`` spends by
# default, each member charged ``SURGERY_STATE_MOVES`` moves.  This
# bounds the search's time and memory, however many moves a state has
# or however many chords it carries.  On a 2-core machine the slowest
# searches found are refused after 0.5-0.6 s: (N - 6)/2 triangles
# fanned on each side of one hexagon (a new member every other move, of
# N - 6 chords each) at N = 5000, and an N-gon with chords 0-2, 2-4,
# ..., N-3 - N-1 (a cell of (N+1)/2 vertices with a triangle on each
# chord edge) at N = 41; at N = 199,997 that shape's first state alone
# has over 10^9 moves.  A random 3-periodic 150-gon whose class has
# 84,624 states took 81 s and 399 MB without a cap.
SURGERY_CLASS_CAP = 8_000_000

# Largest polygon that ``canonicalize_trace`` accepts, and with it the
# 3-periodic ``class_export``.  Canonicalization costs O(steps x N), and
# no 3-periodic dissection found takes over (N - 6)/2 steps (none with
# N <= 16 does).  The slowest shape found takes that many: (N - 6)/2
# triangles fanned on each side of one hexagon, whose 5000-gon takes
# 0.9 s through ``surgery canon`` on a 2-core machine; a chain of
# nested hexagons (chords 2 - N-3, 4 - N-5, ...) takes 0.1 s.
SURGERY_CANON_CAP = 5000


class SurgeryMove(Value):
    """One legal surgery: the acting cell (with its index in
    :func:`cells`), the two removed chords and the two chords replacing
    them (all with sorted endpoints); the cell and each pair of chords
    are kept as tuples, whatever sequence the caller passes."""

    __slots__ = _fields = ("cell_index", "cell", "removed", "added")

    def __init__(
        self, cell_index: int, cell: tuple[int, ...], removed: tuple[Chord, Chord],
        added: tuple[Chord, Chord],
    ) -> None:
        object.__setattr__(self, "cell_index", cell_index)
        object.__setattr__(self, "cell", tuple(cell))
        object.__setattr__(self, "removed", tuple(removed))
        object.__setattr__(self, "added", tuple(added))


def base_edge(cell: tuple[int, ...]) -> Chord:
    """The cell's edge toward the base cell: its closing edge (last,
    first), which spans all its other edges."""
    return (cell[0], cell[-1])


def _move(idx: int, cell: tuple[int, ...], i: int, j: int) -> SurgeryMove:
    """The move re-pairing edges i < j of the cell, where edge k joins
    cell[k] and cell[(k + 1) % t]."""
    p, q, r, s = cell[i], cell[i + 1], cell[j], cell[(j + 1) % len(cell)]
    a, b = (p, q), (r, s) if r < s else (s, r)
    # min(p, s) <= p < q, so the added pairs come sorted
    added = ((p, s) if p < s else (s, p), (q, r))
    return SurgeryMove(idx, cell, (a, b) if a < b else (b, a), added)


def _moves(
    n: int, cs: Sequence[tuple[int, ...]], require_3periodic: bool
) -> Iterator[SurgeryMove]:
    """All legal surgery moves on the dissection of the N-gon whose
    cells, in :func:`cells` order, are ``cs``, one at a time."""
    if require_3periodic and any(len(c) % 3 for c in cs):
        raise DomainError("3-periodic surgery needs a 3-periodic dissection")
    for idx, cell in enumerate(cs):
        t = len(cell)
        if t < 6:
            continue
        # the edge between consecutive corners u < v is a chord iff
        # v - u >= 2, and the base edge (last) iff it is not (0, N-1).
        # A move re-pairs chord edges i < j with at least two edges
        # between them on both sides.  It cuts the cell into arcs of
        # j - i and t - (j - i) vertices and merges the two cells beyond
        # the chords into one of their summed size, so on a 3-periodic
        # input only j - i needs a test.
        at = [k for k in range(t - 1) if cell[k + 1] - cell[k] >= 2]
        if cell[-1] - cell[0] != n - 1:
            at.append(t - 1)
        for a, i in enumerate(at):
            for j in at[a + 1:]:
                if 3 <= j - i <= t - 3 and not (require_3periodic and (j - i) % 3):
                    yield _move(idx, cell, i, j)


def find_surgeries(d: Dissection, require_3periodic: bool) -> list[SurgeryMove]:
    """All legal surgery moves on a dissection.

    With ``require_3periodic`` the input must be 3-periodic and only
    moves whose result is again 3-periodic are kept.
    """
    return list(_moves(d.n_vertices, cells(d), require_3periodic))


def _cells_after(cs: Sequence[tuple[int, ...]], move: SurgeryMove) -> list[tuple[int, ...]]:
    """The cells, in :func:`cells` order, after a legal move on the
    dissection whose cells are ``cs``: the acting cell splits into its
    two arcs, and the two cells beyond the removed chords merge."""
    cell = move.cell
    t = len(cell)
    i, j = sorted(t - 1 if (a, b) == (cell[0], cell[-1]) else cell.index(a)
                  for a, b in move.removed)
    out = list(cs)
    del out[move.cell_index]
    # a chord is an edge of exactly two cells, and no other cell holds
    # both its ends
    x, y = [next(c for c in out if a in c and b in c) for a, b in move.removed]
    out.remove(x)
    out.remove(y)
    for new in (cell[i + 1:j + 1], cell[:i + 1] + cell[j + 1:], tuple(sorted(x + y))):
        insort(out, new, key=lambda c: (c[0], len(c), c))
    return out


def _swapped(chords: tuple[Chord, ...], move: SurgeryMove) -> tuple[Chord, ...]:
    """The sorted chords after a move: its removed two replaced by its
    added two, each inserted in order."""
    out = list(chords)
    for c in move.removed:
        out.remove(c)
    for c in move.added:
        insort(out, c)
    return tuple(out)


def _kept_quiddity(n: int, chords: tuple[Chord, ...], degrees: list[int]) -> Dissection:
    """The dissection of the N-gon on ``chords``, validated once and
    checked to give every vertex its chord degree in ``degrees``, hence
    its quiddity entry: a cheap guarantee that the moves really were
    surgeries (the degrees sum to twice the chord count, so that is kept
    too)."""
    result = Dissection(n, chords)
    if result.chord_degrees() != degrees:
        raise AssertionError("surgery changed the quiddity")
    return result


def apply_surgery(
    d: Dissection, move: SurgeryMove, legal: list[SurgeryMove] | None = None
) -> Dissection:
    """Apply a surgery move, returning the canonical result.

    Validates the move against ``legal``, the moves the caller already
    found on ``d`` (all of them, or any subset), or else against
    :func:`find_surgeries`, and the result with ``_kept_quiddity``."""
    if legal is None:
        legal = find_surgeries(d, require_3periodic=False)
    if move not in legal:
        raise DomainError(f"move {move} is not legal for {d}")
    return _kept_quiddity(d.n_vertices, _swapped(d.chords, move), d.chord_degrees())


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


def _refuse_long_canon(n: int) -> None:
    """Refuse to canonicalize an N-gon over ``SURGERY_CANON_CAP``."""
    if n > SURGERY_CANON_CAP:
        raise ResourceLimitError(
            f"a {n}-gon is over the canonicalization cap of {SURGERY_CANON_CAP} vertices"
        )


def _opening(n: int, cs: Sequence[tuple[int, ...]]) -> Iterator[SurgeryMove]:
    """The 3-periodic opening moves on the 3-periodic dissection of the
    N-gon whose cells are ``cs``, one at a time in :func:`find_surgeries`
    order, by a rule local to each cell: a non-base cell of t vertices
    opens at each chord edge in position 2, 5, ..., t - 4, together with
    its base edge."""
    return (_move(idx, cell, k, len(cell) - 1)
            for idx, cell in enumerate(cs) if len(cell) > 5 and cell[-1] - cell[0] != n - 1
            for k in range(2, len(cell) - 3, 3) if cell[k + 1] - cell[k] >= 2)


def canonicalize_trace(
    d: Dissection, rng: random.Random | None = None
) -> tuple[Dissection, tuple[SurgeryMove, ...]]:
    """Apply 3-periodic opening surgeries until none remains, returning
    the fixed point and the moves applied.

    By default each step takes the first opening move in cells order,
    then by position in the cell; passing an ``rng`` picks admissible
    moves at random instead.  Any order reaches the same fixed point:
    each opening surgery keeps the quiddity and shortens the chords'
    total length, so the moves end at a maximally open member of the
    input's quiddity class, and the paper's surgery theorem gives each
    3-periodic class exactly one (the test suite checks this rather than
    assumes it).  The cells are extracted once and carried from move to
    move; the fixed point is validated once, and checked against the
    input's chord degrees and its own cells.  An N-gon over
    ``SURGERY_CANON_CAP`` is refused before any of this.
    """
    n = d.n_vertices
    _refuse_long_canon(n)
    cs = cells(d)  # each move's ``_cells_after`` makes a new list
    if any(len(c) % 3 for c in cs):
        raise DomainError("3-periodic surgery needs a 3-periodic dissection")
    applied = []
    for _ in range(2 * n * (len(d.chords) + 1) + 10):
        if rng is None:
            move = next(_opening(n, cs), None)
        else:  # the moves come sorted by (cell_index, removed)
            moves = list(_opening(n, cs))
            move = rng.choice(moves) if moves else None
        if move is None:
            break
        applied.append(move)
        cs = _cells_after(cs, move)
    else:
        raise AssertionError("opening surgeries did not terminate")
    if not applied:
        return d, ()
    result = _kept_quiddity(
        n, tuple(base_edge(c) for c in cs if c[-1] - c[0] != n - 1), d.chord_degrees())
    if list(cells(result)) != cs:
        raise AssertionError(f"carried cells disagree with the cells of {result}")
    return result, tuple(applied)


def canonicalize_maximally_open(d: Dissection, rng: random.Random | None = None) -> Dissection:
    """The maximally open dissection reached from ``d`` by repeated
    3-periodic opening surgeries."""
    result, _ = canonicalize_trace(d, rng)
    return result


def surgery_class(
    d: Dissection,
    require_3periodic: bool,
    max_work: int | None = None,
) -> frozenset[Dissection]:
    """Closure of a dissection under (3-periodic) surgeries, by
    breadth-first search.  Each state carries its cells from its parent;
    a state reached again is skipped before anything is built, and a new
    one is validated once and checked against its parent's chord
    degrees.  Each move tried costs O(N) and each member about
    ``SURGERY_STATE_MOVES`` moves, so the search refuses once that work
    times N passes ``max_work`` (default ``SURGERY_CLASS_CAP``)."""
    n = d.n_vertices
    if max_work is None:
        max_work = SURGERY_CLASS_CAP
    work = 0

    def spend(moves: int) -> None:
        nonlocal work
        work += moves * n
        if work > max_work:
            raise ResourceLimitError(
                f"surgery class exceeds the cap of {max_work} on "
                f"(moves tried + {SURGERY_STATE_MOVES} x members) x N")

    spend(SURGERY_STATE_MOVES)  # the first member
    seen = {d.chords: d}
    queue = deque([(d, cells(d))])
    while queue:
        cur, cs = queue.popleft()
        degrees = cur.chord_degrees()
        for mv in _moves(n, cs, require_3periodic):
            spend(1)
            chords = _swapped(cur.chords, mv)
            if chords in seen:
                continue
            spend(SURGERY_STATE_MOVES)
            nxt = seen[chords] = _kept_quiddity(n, chords, degrees)
            queue.append((nxt, _cells_after(cs, mv)))
    return frozenset(seen.values())


def class_export(d: Dissection, require_3periodic: bool = True) -> dict[str, object]:
    """JSON-ready view of a surgery class: the shared quiddity, all
    members, and (for 3-periodic classes) the maximally open member.
    A 3-periodic class of an N-gon over ``SURGERY_CANON_CAP`` is refused
    before the class search."""
    if require_3periodic:
        _refuse_long_canon(d.n_vertices)
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
