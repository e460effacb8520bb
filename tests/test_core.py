"""Dissection representation, cell extraction, quiddities, dihedral action."""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, strategies as st

from quiddity import (
    Dissection,
    DomainError,
    ParseError,
    ResourceLimitError,
    cell_size_profile,
    cells,
    dihedral_transform,
    format_dissection,
    is_ell_periodic,
    is_size_restricted,
    parse_dissection,
    quiddity,
)
from quiddity import core
from quiddity.core import PARSE_N_CAP
from quiddity.enumeration import enumerate_dissections
from quiddity.surgery import base_edge

from oracles import (
    cells_by_splitting,
    chord_sides,
    chords_by_left_end_sweep,
    crosses,
    random_dissection,
    sweep_by_vertices,
    valid_by_definition,
)


def test_parse_pentagon():
    d = parse_dissection("5:0-2,0-3")
    assert d.n_vertices == 5
    assert d.chords == ((0, 2), (0, 3))


def test_parse_empty_dissection():
    d = parse_dissection("6:")
    assert d.chords == ()
    assert len(cells(d)) == 1


def test_parse_canonicalizes_chord_and_endpoint_order():
    assert parse_dissection("8:5-7,3-1") == parse_dissection("8:1-3,5-7")


def test_format_parse_round_trip():
    for text in ["5:0-2,0-3", "6:", "8:1-3,5-7", "8:1-3,3-5,5-7"]:
        assert format_dissection(parse_dissection(text)) == text


@pytest.mark.parametrize("bad, fragment", [
    ("5", "':'"),
    ("x:", "'x'"),
    ("2:", "3 vertices"),
    ("5:0-9", "out of range"),
    ("5:1-2", "polygon edge"),
    ("8:0-7", "polygon edge"),
    ("5:3-3", "out of range"),
    ("6:0-2,1-3", "cross"),
    ("6:0-2,0-2", "duplicate"),
    ("6:0-2,a-3", "'a-3'"),
    ("6:0", "'0'"),
    ("6:0-2-4", "'0-2-4'"),
    ("6:0-2,", "''"),
])
def test_parse_errors_name_the_offender(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_dissection(bad)
    assert fragment in str(err.value)


def test_parse_refuses_a_vertex_count_over_the_cap():
    assert parse_dissection(f"{PARSE_N_CAP}:0-2").n_vertices == PARSE_N_CAP
    with pytest.raises(ResourceLimitError):
        parse_dissection(f"{PARSE_N_CAP + 1}:")


def test_cells_pentagon():
    cs = cells(parse_dissection("5:0-2,0-3"))
    assert list(cs) == [(0, 1, 2), (0, 2, 3), (0, 3, 4)]


def test_cells_octagon_pair_of_ears():
    cs = cells(parse_dissection("8:1-3,5-7"))
    assert list(cs) == [(0, 1, 3, 4, 5, 7), (1, 2, 3), (5, 6, 7)]
    assert sorted(len(c) for c in cs) == [3, 3, 6]


def test_cells_octagon_three_chords():
    cs = cells(parse_dissection("8:1-3,3-5,5-7"))
    assert len(cs) == 4
    assert sum(len(c) for c in cs) == 8 + 2 * 3


def _inner_chords(vertices):
    return [(u, v) for u, v in zip(vertices, vertices[1:]) if v - u > 1]


def test_dual_tree_shape():
    # each cell but the base cell hangs from the cell that has its base
    # edge as an inner edge; following those links from any cell reaches
    # the base cell, so the dual tree is connected
    for text in ["5:0-2,0-3", "8:1-3,5-7", "8:1-3,3-5,5-7", "6:"]:
        d = parse_dissection(text)
        cs = cells(d)
        assert len(cs) == len(d.chords) + 1
        parent = {e: k for k, c in enumerate(cs) for e in _inner_chords(c)}
        assert len(parent) == len(cs) - 1
        for k in range(len(cs)):
            path = [k]
            while base_edge(cs[path[-1]]) != (0, d.n_vertices - 1):
                path.append(parent[base_edge(cs[path[-1]])])
                assert len(path) <= len(cs)


def test_cells_match_splitting_oracle_exhaustively():
    # cells in the same order, and each chord is the base edge of exactly
    # one cell and an inner edge of exactly one other: the two oracle
    # cells that have the chord as a boundary edge
    for n in range(3, 11):
        for d in enumerate_dissections(n):
            cs = cells(d)
            want = cells_by_splitting(d)
            assert list(cs) == want
            sides = chord_sides(want)
            for chord in d.chords:
                beyond = [k for k, c in enumerate(cs) if base_edge(c) == chord]
                within = [k for k, c in enumerate(cs) if chord in _inner_chords(c)]
                assert len(beyond) == len(within) == 1
                assert sorted(beyond + within) == sides[chord]


@st.composite
def chord_sets(draw):
    n = draw(st.integers(4, 14))
    diagonals = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    chosen = draw(st.lists(st.sampled_from(diagonals), unique=True, max_size=n))
    return n, chosen


def _random_chord_list(rng):
    """The chords of a random dissection, ends in random order, with
    some of: a duplicate, a random pair of ends (out of range, equal,
    adjacent, crossing or fine) and a polygon edge."""
    n = rng.randint(1, 40)
    chords = list(random_dissection(n, rng).chords) if n >= 3 else []
    chords = [(j, i) if rng.random() < 0.3 else (i, j) for i, j in chords]
    if chords and rng.random() < 0.2:
        chords.append(rng.choice(chords)[::rng.choice((1, -1))])
    for _ in range(rng.choice((0, 0, 1, 2))):
        chords.append((rng.randint(-2, n + 1), rng.randint(-2, n + 1)))
    if rng.random() < 0.1:
        k = rng.randrange(max(n, 1))
        chords.append(rng.choice(((k, (k + 1) % max(n, 1)), (0, n - 1), (n - 1, 0))))
    rng.shuffle(chords)
    return n, chords


KINDS = ("at least 3 vertices", "out of range", "polygon edge", "duplicate", "cross")


def test_validation_matches_the_left_end_sweep_on_random_chord_lists():
    # the same error line as the earlier key-tuple sweep, or the same
    # canonical chords, stored as tuples when given as lists; validity
    # by the pairwise definition; and a crossing pair that was named
    # really crosses
    rng = random.Random(28)
    kinds = set()
    for _ in range(4000):
        n, chords = _random_chord_list(rng)
        given = [list(c) for c in chords] if rng.random() < 0.5 else chords
        try:
            want = chords_by_left_end_sweep(n, chords)
        except DomainError as exc:
            with pytest.raises(DomainError) as err:
                Dissection(n, given)
            assert str(err.value) == str(exc), (n, chords)
            assert not valid_by_definition(n, chords), (n, chords)
            named = re.fullmatch(r"chords (\d+)-(\d+) and (\d+)-(\d+) cross", str(exc))
            if named:
                a, b = (int(named[1]), int(named[2])), (int(named[3]), int(named[4]))
                assert crosses(a, b), (n, chords)
            kinds.add(next(k for k in KINDS if k in str(exc)))
        else:
            got = Dissection(n, given).chords
            assert got == want and all(type(c) is tuple for c in got), (n, chords)
            assert valid_by_definition(n, chords), (n, chords)
            kinds.add("valid")
    assert kinds == {"valid", *KINDS}


def test_cells_match_splitting_oracle_on_random_dissections():
    rng = random.Random(67)
    for n in [*range(3, 60), *range(60, 301, 12)]:
        d = random_dissection(n, rng, rng.choice((None, range(3, n + 1, 3), (3, 4))))
        assert list(cells(d)) == cells_by_splitting(d), d


def test_sweep_order_matches_the_vertex_sweep():
    # the raw cells, in the order they close, on every dissection with
    # N <= 9, random ones, and the canonicalization cap's two shapes:
    # the 5000-gon fan of triangles on each side of a hexagon and the
    # 4998-gon chain of nested hexagons
    n = 5000
    fan = Dissection(n, tuple([(i, n - 1) for i in range(1, n // 2 - 2)]
                              + [(n // 2 - 1, j) for j in range(n // 2 + 1, n - 2)]))
    chain = Dissection(4998, tuple((k, 4997 - k) for k in range(2, 2498, 2)))
    rng = random.Random(5)
    pool = [d for n in range(3, 10) for d in enumerate_dissections(n)]
    pool += [random_dissection(n, rng) for n in range(10, 400, 7)]
    for d in pool + [fan, chain]:
        assert core._sweep(d) == sweep_by_vertices(d), d


def test_quiddity_sweeps_once_and_leaves_the_sorting_to_cells(monkeypatch):
    swept = []
    sweep = core._sweep
    monkeypatch.setattr(core, "_sweep", lambda d: swept.append(d) or sweep(d))
    d = parse_dissection("12:0-5,1-3,5-11,6-10,7-9")
    assert quiddity(d).entries == (2, 2, 1, 2, 1, 3, 2, 2, 1, 2, 2, 2)
    cs = cells(d)
    assert list(cs) == cells_by_splitting(d) and cells(d) is cs
    assert quiddity(d).entries == (2, 2, 1, 2, 1, 3, 2, 2, 1, 2, 2, 2)
    assert swept == [d]


@given(chord_sets())
def test_linear_validation_agrees_with_pairwise_rule(case):
    n, chosen = case
    crossing = any(crosses(a, b) for a in chosen for b in chosen)
    if not crossing:
        assert Dissection(n, tuple(chosen)).chords == tuple(sorted(chosen))
        return
    with pytest.raises(DomainError) as err:
        Dissection(n, tuple(chosen))
    named = re.fullmatch(r"chords (\d+)-(\d+) and (\d+)-(\d+) cross", str(err.value))
    assert named
    a, b = (int(named[1]), int(named[2])), (int(named[3]), int(named[4]))
    assert a in chosen and b in chosen and crosses(a, b)


def test_quiddity_examples():
    assert quiddity(parse_dissection("5:0-2,0-3")).entries == (3, 1, 2, 2, 1)
    assert quiddity(parse_dissection("6:")).entries == (1, 1, 1, 1, 1, 1)
    assert quiddity(parse_dissection("8:1-3,5-7")).entries == (1, 2, 1, 2, 1, 2, 1, 2)


def test_swept_cells_stay_out_of_equality_hash_and_repr():
    d = parse_dissection("8:1-3,5-7")
    fresh = Dissection(8, ((5, 7), (1, 3)))
    assert cells(d) is cells(d)
    assert d == fresh and fresh == d and hash(d) == hash(fresh)
    assert repr(d) == repr(fresh) == "Dissection(n_vertices=8, chords=((1, 3), (5, 7)))"
    assert {d, fresh} == {fresh}


def test_quiddity_cross_check_catches_a_wrong_sweep(monkeypatch):
    # cells() and quiddity() share one sweep; the chord degrees must
    # still catch a sweep that loses a vertex
    from quiddity import core

    d = parse_dissection("8:1-3,5-7")
    sweep = core._sweep
    monkeypatch.setattr(core, "_sweep", lambda d: [c[:-1] if k == 0 else c
                                                  for k, c in enumerate(sweep(d))])
    with pytest.raises(AssertionError, match="self-check failed"):
        quiddity(d)


def test_quiddity_cross_checks_kept_cells_on_every_call():
    d = parse_dissection("8:1-3,5-7")
    quiddity(d)
    object.__setattr__(d, "_cells", cells(d)[1:])  # as if a cell were lost
    with pytest.raises(AssertionError, match="self-check failed"):
        quiddity(d)


def test_quiddity_string():
    assert str(quiddity(parse_dissection("8:1-3,5-7"))) == "1,2,1,2,1,2,1,2"


def test_cell_size_profile_and_periodicity():
    d = parse_dissection("8:1-3,5-7")
    assert cell_size_profile(d) == (3, 3, 6)
    assert is_ell_periodic(d, 3)
    t = parse_dissection("5:0-2,0-3")
    assert cell_size_profile(t) == (3, 3, 3)
    assert is_ell_periodic(t, 3) and is_ell_periodic(t, 1)
    h = parse_dissection("6:")
    assert cell_size_profile(h) == (6,)
    assert is_ell_periodic(h, 3) and not is_ell_periodic(h, 2)


def test_period_below_one_rejected():
    with pytest.raises(DomainError):
        is_ell_periodic(parse_dissection("6:"), 0)


def test_size_restriction():
    d = parse_dissection("8:1-3,5-7")
    assert is_size_restricted(d, {3, 6})
    assert not is_size_restricted(d, {3, 4})


def test_dihedral_rotation_example():
    d = parse_dissection("8:1-3,5-7")
    assert dihedral_transform(d, 2, False) == parse_dissection("8:1-7,3-5")
    assert dihedral_transform(d, 0, False) == d


def test_dihedral_action_is_a_group_action():
    d = parse_dissection("8:1-3,3-5")
    n = d.n_vertices
    for r in range(n):
        back = dihedral_transform(dihedral_transform(d, r, False), n - r, False)
        assert back == d
        refl = dihedral_transform(dihedral_transform(d, r, True), r, True)
        assert refl == d


def test_quiddity_equivariance_on_all_pentagon_dissections():
    for d in enumerate_dissections(5):
        q = quiddity(d).entries
        for k in range(5):
            rotated = quiddity(dihedral_transform(d, k, False)).entries
            assert rotated == tuple(q[(j - k) % 5] for j in range(5))
        for k in range(5):
            reflected = quiddity(dihedral_transform(d, k, True)).entries
            assert reflected == tuple(q[(k - j) % 5] for j in range(5))


def test_profile_invariant_under_dihedral_action():
    d = parse_dissection("8:1-3,5-7")
    for r in range(8):
        for f in (False, True):
            assert cell_size_profile(dihedral_transform(d, r, f)) == (3, 3, 6)


@given(st.integers(3, 12), st.integers(0, 50), st.booleans())
def test_dihedral_transform_preserves_validity(n, seed, reflected):
    pool = list(enumerate_dissections(n, min(3, n - 2)))
    d = pool[seed % len(pool)]
    out = dihedral_transform(d, seed, reflected)
    assert out.n_vertices == n
    assert len(out.chords) == len(d.chords)


def test_cell_count_and_size_sum_invariants():
    for n in range(3, 9):
        for d in enumerate_dissections(n):
            cs = cells(d)
            assert len(cs) == len(d.chords) + 1
            assert sum(len(c) for c in cs) == n + 2 * len(d.chords)
            q = quiddity(d)
            assert sum(q.entries) == n + 2 * len(d.chords)
