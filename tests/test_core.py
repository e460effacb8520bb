"""Dissection representation, cell extraction, quiddities, dihedral action."""
from __future__ import annotations

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
from quiddity.core import PARSE_N_CAP
from quiddity.enumeration import enumerate_dissections
from quiddity.surgery import base_edge

from oracles import cells_by_splitting, chord_sides


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


def _pairwise_cross(a, b):
    # the quadratic rule: chords with four distinct ends cross iff
    # exactly one end of b lies strictly inside the span of a
    (p, q), (r, s) = a, b
    if len({p, q, r, s}) < 4:
        return False
    return (p < r < q) != (p < s < q)


@st.composite
def chord_sets(draw):
    n = draw(st.integers(4, 14))
    diagonals = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, n - 1)]
    chosen = draw(st.lists(st.sampled_from(diagonals), unique=True, max_size=n))
    return n, chosen


@given(chord_sets())
def test_linear_validation_agrees_with_pairwise_rule(case):
    n, chosen = case
    crossing = any(_pairwise_cross(a, b) for a in chosen for b in chosen)
    if not crossing:
        assert Dissection(n, tuple(chosen)).chords == tuple(sorted(chosen))
        return
    with pytest.raises(DomainError) as err:
        Dissection(n, tuple(chosen))
    named = re.fullmatch(r"chords (\d+)-(\d+) and (\d+)-(\d+) cross", str(err.value))
    assert named
    a, b = (int(named[1]), int(named[2])), (int(named[3]), int(named[4]))
    assert a in chosen and b in chosen and _pairwise_cross(a, b)


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
