"""Surgery moves, opening surgeries, and maximally-open canonical forms."""
from __future__ import annotations

import random
from collections import deque

import pytest

from quiddity import (
    DomainError,
    ResourceLimitError,
    cell_size_profile,
    cells,
    is_ell_periodic,
    is_size_restricted,
    parse_dissection,
    quiddity,
)
from quiddity import core, surgery
from quiddity.enumeration import CellFilter, enumerate_dissections
from quiddity.surgery import (
    _cells_after,
    _move,
    _opening,
    _swapped,
    apply_surgery,
    base_edge,
    canonicalize_maximally_open,
    canonicalize_trace,
    class_export,
    find_surgeries,
    is_maximally_open,
    is_opening,
    opening_moves,
    surgery_class,
)

from oracles import (
    cells_by_splitting,
    chord_sides,
    random_dissection,
    surgery_moves_by_definition,
)

ELL3 = CellFilter.ell_periodic(3)
OCTAGON = parse_dissection("8:1-3,5-7")
OCTAGON_TWIN = parse_dissection("8:1-7,3-5")


def three_periodic(max_n):
    for n in range(3, max_n + 1):
        yield from enumerate_dissections(n, None, ELL3)


def hexagon_chain(n):
    """The N-gon (N = 2 mod 4) cut by chords 2 - N-3, 4 - N-5, ... into
    nested hexagons, each one's third edge the base edge of the next."""
    return core.Dissection(n, tuple((k, n - 1 - k) for k in range(2, n // 2 - 1, 2)))


def test_octagon_has_one_3periodic_move():
    moves = find_surgeries(OCTAGON, require_3periodic=True)
    assert len(moves) == 1
    assert moves[0].removed == ((1, 3), (5, 7))
    assert moves[0].added == ((1, 7), (3, 5))


def test_small_cells_admit_no_moves():
    assert find_surgeries(parse_dissection("6:"), True) == []
    for d in enumerate_dissections(8, None, CellFilter.size_set({3, 4, 5})):
        assert find_surgeries(d, False) == []


def test_moves_match_the_definition_exhaustively():
    # plain moves on every dissection with N <= 10; 3-periodic moves on
    # every 3-periodic one with N <= 11, the first N with a 9-vertex cell
    # that has two chord edges, so the first where a plain move can cut
    # a 3-periodic cell into arcs whose sizes are not multiples of 3
    def found(d, require_3periodic):
        return [(mv.cell_index, mv.removed, mv.added)
                for mv in find_surgeries(d, require_3periodic)]

    for n in range(3, 11):
        for d in enumerate_dissections(n):
            assert found(d, False) == surgery_moves_by_definition(d, False), d
    for d in three_periodic(11):
        assert found(d, True) == surgery_moves_by_definition(d, True), d


def test_apply_octagon_move():
    moves = find_surgeries(OCTAGON, True)
    assert apply_surgery(OCTAGON, moves[0]) == OCTAGON_TWIN


def test_surgery_is_reversible():
    moves = find_surgeries(OCTAGON, True)
    result = apply_surgery(OCTAGON, moves[0])
    back = [mv for mv in find_surgeries(result, True)
            if set(mv.removed) == set(moves[0].added)]
    assert len(back) == 1
    assert apply_surgery(result, back[0]) == OCTAGON


def test_a_surgery_that_moves_a_chord_end_is_caught(monkeypatch):
    # apply, canonicalization and the class search each check their
    # results' chord degrees, hence quiddities, against the input's
    forged = surgery.SurgeryMove(0, (1, 3, 5, 7), ((1, 3), (5, 7)), ((1, 5), (1, 7)))
    with pytest.raises(AssertionError, match="surgery changed the quiddity"):
        apply_surgery(OCTAGON, forged, [forged])
    fan = parse_dissection("8:0-2,0-3,0-4,0-5,0-6")
    monkeypatch.setattr(surgery, "_cells_after", lambda cs, move: list(cells(fan)))
    with pytest.raises(AssertionError, match="surgery changed the quiddity"):
        canonicalize_trace(OCTAGON_TWIN)
    monkeypatch.setattr(surgery, "_swapped", lambda chords, move: chords[1:])
    with pytest.raises(AssertionError, match="surgery changed the quiddity"):
        surgery_class(OCTAGON, False)


def test_apply_rejects_illegal_moves():
    moves = find_surgeries(OCTAGON, True)
    with pytest.raises(DomainError):
        apply_surgery(OCTAGON_TWIN, moves[0])


def test_surgery_preserves_quiddity_and_sizes_exhaustively():
    for d in three_periodic(9):
        for mv in find_surgeries(d, True):
            out = apply_surgery(d, mv)
            assert quiddity(out) == quiddity(d)
            assert len(out.chords) == len(d.chords)
            assert len(cells(out)) == len(cells(d))


def test_surgery_cell_bookkeeping_random_instances():
    # every move on a sampled dissection produces the predicted three
    # new cell sizes: the two closed arcs and the merged neighbors, whose
    # sides come from the chord-splitting oracle
    rng = random.Random(11)
    pool = [d for m in (3, 4, 5) for d in enumerate_dissections(11, m)]
    for d in rng.sample(pool, 1000):
        want = cells_by_splitting(d)
        sides = chord_sides(want)
        for mv in find_surgeries(d, False):
            cell = mv.cell
            assert want[mv.cell_index] == cell
            boundary = [(u, cell[(k + 1) % len(cell)]) for k, u in enumerate(cell)]
            positions = {
                (min(u, v), max(u, v)): k for k, (u, v) in enumerate(boundary)
            }
            i, j = sorted((positions[mv.removed[0]], positions[mv.removed[1]]))
            size1 = j - i
            size2 = len(cell) - size1
            others = [
                next(c for c in sides[chord] if c != mv.cell_index)
                for chord in mv.removed
            ]
            merged = sum(len(want[c]) for c in others)
            before = sorted(len(c) for c in want)
            for c in [mv.cell_index] + others:
                before.remove(len(want[c]))
            result = sorted(before + [size1, size2, merged])
            assert sorted(cell_size_profile(apply_surgery(d, mv))) == result


def test_moves_and_swaps_match_their_sorted_definitions():
    # every pair of edges of every cell, legal or not, and every legal
    # move, of random 3-periodic dissections
    rng = random.Random(3)
    moves = 0
    for n in range(6, 90, 3):
        d = random_dissection(n, rng, range(3, n + 1, 3))
        for idx, cell in enumerate(cells(d)):
            t = len(cell)
            for i in range(t):
                for j in range(i + 1, t):
                    p, q, r, s = cell[i], cell[i + 1], cell[j], cell[(j + 1) % t]
                    mv = _move(idx, cell, i, j)
                    assert mv.removed == tuple(sorted(((p, q), (min(r, s), max(r, s)))))
                    assert mv.added == tuple(sorted(((min(p, s), max(p, s)), (q, r))))
        for mv in find_surgeries(d, False):
            want = tuple(sorted([c for c in d.chords if c not in mv.removed] + list(mv.added)))
            assert _swapped(d.chords, mv) == want, (d, mv)
            moves += 1
    assert moves > 200


def test_base_cell_data_octagon():
    cs = cells(OCTAGON)
    hexagon = next(c for c in cs if len(c) == 6)
    assert base_edge(hexagon) == (0, 7)
    assert sorted(base_edge(c) for c in cs) == [(0, 7), (1, 3), (5, 7)]


def dual_tree_reference(d):
    """Base edge of every oracle cell, by a breadth-first search of the
    dual tree from the cell on (0, N-1)."""
    n = d.n_vertices
    want = cells_by_splitting(d)
    sides = chord_sides(want)
    root = sides[(0, n - 1)][0]
    adj = {k: [] for k in range(len(want))}
    for chord in d.chords:
        a, b = sides[chord]
        adj[a].append((b, chord))
        adj[b].append((a, chord))
    edge = {root: (0, n - 1)}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt, chord in adj[cur]:
            if nxt not in edge:
                edge[nxt] = chord
                queue.append(nxt)
    assert len(edge) == len(want)
    return edge


def test_base_edge_matches_dual_tree_search_exhaustively():
    for n in range(3, 11):
        for d in enumerate_dissections(n):
            edge = dual_tree_reference(d)
            for k, cell in enumerate(cells(d)):
                assert base_edge(cell) == edge[k]


def test_move_cell_is_the_indexed_cell_exhaustively():
    for n in range(3, 10):
        for d in enumerate_dissections(n):
            cs = cells(d)
            moves = find_surgeries(d, False)
            if all(len(c) % 3 == 0 for c in cs):
                moves += find_surgeries(d, True)
            for mv in moves:
                assert mv.cell == cs[mv.cell_index]


def test_octagon_move_is_not_opening_but_twin_move_is():
    mv = find_surgeries(OCTAGON, True)[0]
    assert not is_opening(mv)
    twin_mv = find_surgeries(OCTAGON_TWIN, True)[0]
    assert is_opening(twin_mv)


def test_maximal_openness_of_the_octagon_pair():
    assert is_maximally_open(OCTAGON)
    assert not is_maximally_open(OCTAGON_TWIN)
    assert canonicalize_maximally_open(OCTAGON) == OCTAGON
    assert canonicalize_maximally_open(OCTAGON_TWIN) == OCTAGON


def test_triangulations_are_maximally_open():
    for d in enumerate_dissections(7, 5):
        assert canonicalize_maximally_open(d) == d


def test_fourteen_gon_chain_opens_in_two_steps():
    d = parse_dissection("14:0-7,2-4,4-6,7-13,9-11")
    result, trace = canonicalize_trace(d)
    assert len(trace) == 2
    assert result == parse_dissection("14:0-2,4-6,4-7,7-9,11-13")
    assert is_maximally_open(result)
    assert quiddity(result) == quiddity(d)


def test_canonicalize_rejects_aperiodic_input():
    with pytest.raises(DomainError):
        canonicalize_maximally_open(parse_dissection("5:0-2"))


def test_octagon_class_is_the_figure_pair():
    assert surgery_class(OCTAGON, True) == frozenset({OCTAGON, OCTAGON_TWIN})


def test_triangulation_classes_are_singletons():
    for d in enumerate_dissections(8, 6):
        assert surgery_class(d, False) == frozenset({d})


def test_classes_equal_quiddity_classes_small():
    for n in range(3, 10):
        for m in range(1, n - 1):
            if (n - 2 - m) % 3:
                continue
            by_quiddity = {}
            for d in enumerate_dissections(n, m, ELL3):
                by_quiddity.setdefault(quiddity(d).entries, []).append(d)
            for members in by_quiddity.values():
                assert surgery_class(members[0], True) == frozenset(members)


def test_unique_maximally_open_member_small():
    for n in range(3, 10):
        for m in range(1, n - 1):
            if (n - 2 - m) % 3:
                continue
            by_quiddity = {}
            for d in enumerate_dissections(n, m, ELL3):
                by_quiddity.setdefault(quiddity(d).entries, []).append(d)
            for members in by_quiddity.values():
                open_ones = [d for d in members if is_maximally_open(d)]
                assert len(open_ones) == 1
                for d in members:
                    assert canonicalize_maximally_open(d) == open_ones[0]


def test_canonical_form_is_the_class_member_exhaustively():
    # every 3-periodic dissection with N <= 11: the fixed point admits no
    # opening move by the full move search, keeps the quiddity, and is
    # the same for every member of the quiddity class
    canon = {}
    for d in three_periodic(11):
        result = canonicalize_maximally_open(d)
        assert is_maximally_open(result), d
        q = quiddity(d)
        assert quiddity(result) == q
        assert canon.setdefault((d.n_vertices, q.entries), result) == result, d


@pytest.mark.parametrize("n", [98, 202, 298])
def test_hexagon_chain_canonicalizes_in_few_steps(n):
    # cells order opens the chain in about N/8 steps; an order whose
    # steps grow as N^2 fails this
    d = hexagon_chain(n)
    result, trace = canonicalize_trace(d)
    assert len(trace) <= n // 8 + 1
    assert is_maximally_open(result)
    assert quiddity(result) == quiddity(d)


def test_canonical_form_is_order_independent():
    rng = random.Random(5)
    for d in three_periodic(9):
        target = canonicalize_maximally_open(d)
        for _ in range(5):
            sub = random.Random(rng.randrange(2 ** 32))
            assert canonicalize_maximally_open(d, sub) == target


def test_opening_moves_all_open():
    for d in three_periodic(9):
        for mv in opening_moves(d):
            assert is_opening(mv)


def test_equal_quiddity_pair_without_any_surgery():
    a = parse_dissection("8:1-7,3-5,3-7")
    b = parse_dissection("8:1-3,3-7,5-7")
    assert quiddity(a) == quiddity(b)
    assert a != b
    assert find_surgeries(a, False) == []
    assert find_surgeries(b, False) == []
    assert cell_size_profile(a) == (3, 3, 4, 4)


def test_odd_cells_equal_quiddity_distinct_classes():
    a = parse_dissection("10:1-9,3-8,4-6")
    b = parse_dissection("10:1-3,4-9,6-8")
    assert quiddity(a) == quiddity(b)
    assert all(s % 2 == 1 for s in cell_size_profile(a))
    assert all(s % 2 == 1 for s in cell_size_profile(b))
    assert b not in surgery_class(a, False)


def test_class_export_shape():
    payload = class_export(OCTAGON, require_3periodic=True)
    assert payload == {
        "quiddity": "1,2,1,2,1,2,1,2",
        "members": ["8:1-3,5-7", "8:1-7,3-5"],
        "maximally_open": "8:1-3,5-7",
    }


def test_find_surgeries_requires_3periodic_input_when_flagged():
    with pytest.raises(DomainError):
        find_surgeries(parse_dissection("5:0-2"), True)


THIRTY_GON = parse_dissection("30:4-25,5-7,7-22,9-11,11-21,13-16,14-16,22-24,27-29")


@pytest.fixture()
def cells_calls(monkeypatch):
    calls = []

    def counted(d):
        calls.append(d)
        return cells(d)

    for module in (core, surgery):
        monkeypatch.setattr(module, "cells", counted)
    return calls


def test_canonicalize_extracts_cells_once_per_state(cells_calls):
    # once from the input; once more from the result, to check the cells
    # carried from move to move
    result, trace = canonicalize_trace(hexagon_chain(50))
    assert len(trace) >= 4
    assert len(cells_calls) <= 2


def test_surgery_class_extracts_cells_once_per_state(cells_calls):
    members = surgery_class(THIRTY_GON, True)
    assert len(members) >= 50
    assert len(cells_calls) <= 1


def test_each_dissection_is_swept_once(monkeypatch):
    # one sweep for the input, whatever asks for its cells, and one for
    # each canonical result built, to check the cells carried to it
    swept = []
    sweep = core._sweep
    monkeypatch.setattr(core, "_sweep", lambda d: swept.append(d) or sweep(d))
    d = parse_dissection(str(THIRTY_GON))
    cs = cells(d)
    assert sum(quiddity(d).entries) == 30 + 2 * len(d.chords)
    assert cell_size_profile(d) == tuple(sorted(map(len, cs)))
    assert is_ell_periodic(d, 3) and is_size_restricted(d, {3, 6, 9})
    assert find_surgeries(d, True) and find_surgeries(d, False)
    assert not is_maximally_open(d)
    result, _ = canonicalize_trace(d)
    payload = class_export(d)
    assert payload["maximally_open"] == str(result)
    assert cells(d) is cs
    assert swept[0] is d and swept == [d, result, result]


def test_carried_cells_out_of_order_are_caught(monkeypatch):
    # the right cells in the wrong order keep every chord and chord
    # degree, so only the re-sweep of the result can catch them
    after = surgery._cells_after
    monkeypatch.setattr(surgery, "_cells_after", lambda cs, move: after(cs, move)[::-1])
    with pytest.raises(AssertionError, match="carried cells disagree"):
        canonicalize_trace(parse_dissection(str(OCTAGON_TWIN)))


def test_carried_cells_match_the_cells_of_the_result_exhaustively():
    # plain moves on every dissection with N <= 10, 3-periodic moves on
    # every 3-periodic one with N <= 11
    def check(d, require_3periodic):
        cs = list(cells(d))
        for mv in find_surgeries(d, require_3periodic):
            assert _cells_after(cs, mv) == list(cells(apply_surgery(d, mv))), (d, mv)

    for n in range(3, 11):
        for d in enumerate_dissections(n):
            check(d, False)
    for d in three_periodic(11):
        check(d, True)


def test_local_rule_gives_the_opening_moves_exhaustively():
    for d in three_periodic(11):
        assert list(_opening(d.n_vertices, list(cells(d)))) == opening_moves(d), d


def test_surgery_class_refuses_more_work_than_its_cap(monkeypatch):
    members = surgery_class(THIRTY_GON, True)
    # every member's moves are tried once, at a cost of N each, and each
    # member costs SURGERY_STATE_MOVES moves
    work = 30 * (sum(len(find_surgeries(m, True)) for m in members)
                 + surgery.SURGERY_STATE_MOVES * len(members))
    assert surgery_class(THIRTY_GON, True, max_work=work) == members
    with pytest.raises(ResourceLimitError):
        surgery_class(THIRTY_GON, True, max_work=work - 1)
    # the default cap is SURGERY_CLASS_CAP, read at call time
    monkeypatch.setattr(surgery, "SURGERY_CLASS_CAP", work)
    assert surgery_class(THIRTY_GON, True) == members
    monkeypatch.setattr(surgery, "SURGERY_CLASS_CAP", work - 1)
    with pytest.raises(ResourceLimitError):
        surgery_class(THIRTY_GON, True)


def test_canonicalization_refuses_polygons_over_its_cap(monkeypatch, cells_calls):
    # the cap, lowered below this 30-gon, is read at call time and
    # checked before any cell is extracted
    monkeypatch.setattr(surgery, "SURGERY_CANON_CAP", 29)
    with pytest.raises(ResourceLimitError, match="canonicalization cap of 29"):
        canonicalize_trace(THIRTY_GON)
    with pytest.raises(ResourceLimitError, match="canonicalization cap of 29"):
        class_export(THIRTY_GON, require_3periodic=True)
    assert cells_calls == []
    # a class search that is not 3-periodic canonicalizes nothing, so it
    # is not refused
    assert len(class_export(THIRTY_GON, require_3periodic=False)["members"]) == 264
    monkeypatch.setattr(surgery, "SURGERY_CANON_CAP", 30)
    result, trace = canonicalize_trace(THIRTY_GON)
    assert class_export(THIRTY_GON)["maximally_open"] == str(result)


def test_surgery_class_refuses_before_listing_a_huge_state(monkeypatch):
    # a 401-gon with chords 0-2, 2-4, ..., 398-400: one 201-vertex cell
    # with a triangle on each chord edge, whose first state alone has
    # thousands of moves
    d = core.Dissection(401, tuple((i, i + 2) for i in range(0, 400, 2)))
    built = []
    move = surgery._move
    monkeypatch.setattr(surgery, "_move", lambda *a: built.append(a) or move(*a))
    # room for the first member and ten moves, each making a new member
    per_member = surgery.SURGERY_STATE_MOVES
    with pytest.raises(ResourceLimitError):
        surgery_class(d, True, max_work=401 * (per_member + 10 * (1 + per_member)))
    assert len(built) == 11
