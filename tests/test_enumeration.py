"""Exhaustive generation, streaming counts, and quiddity classes."""
from __future__ import annotations

import io
import itertools
import sys
import threading
import time

import pytest

from quiddity import Dissection, DomainError, ResourceLimitError, dihedral_orbit, quiddity
from quiddity import cli, enumeration, modular
from quiddity.enumeration import (
    ENUMERATE_N_CAP,
    FAMILY_CAP,
    CellFilter,
    _carried_quiddities,
    _class_texts,
    _reach_masks,
    _texts,
    count_dissections,
    count_quiddities,
    enumerate_dissections,
    quiddity_classes,
)
from quiddity import cell_size_profile, formulas

from oracles import (
    base_cells_by_corner_sets,
    enumerate_by_interval_bounds,
    reach_and_chain_by_sumsets,
    total_dissections,
)

ELL3 = CellFilter.ell_periodic(3)
# the test filters: every size, both ell kinds, and size sets with and
# without a closed-form count
SEVEN_FILTERS = [
    CellFilter.all_cells(), CellFilter.ell_periodic(2), ELL3, CellFilter.size_set({3, 4}),
    CellFilter.size_set({5}), CellFilter.size_set({4, 7}), CellFilter.size_set({3, 5, 6}),
]


def test_pentagon_has_eleven_dissections():
    assert sum(1 for _ in enumerate_dissections(5)) == 11
    assert total_dissections(3) == 11


def test_square_two_cell_dissections_are_the_diagonals():
    found = sorted(str(d) for d in enumerate_dissections(4, 2))
    assert found == ["4:0-2", "4:1-3"]


def test_octagon_three_cell_3periodic_count():
    assert count_dissections(8, 3, ELL3) == 36
    assert sum(1 for _ in enumerate_dissections(8, 3, ELL3)) == 36


def test_counts_match_enumeration_lengths():
    for n in range(3, 9):
        for m in range(1, n - 1):
            for filt in (CellFilter.all_cells(), ELL3, CellFilter.size_set({3, 4}),
                         CellFilter.ell_periodic(4), CellFilter.size_set({5}),
                         CellFilter.size_set({3, 5, 6}), CellFilter.size_set({4, 7})):
                assert count_dissections(n, m, filt) == \
                    sum(1 for _ in enumerate_dissections(n, m, filt))


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_order_matches_interval_bound_enumerator_exhaustively(filt):
    # the order is part of the ``enumerate`` output; the package builds
    # its dissections without validating them, so the m = None pass also
    # rebuilds each one through the validating constructor
    for n in range(3, 11):
        for m in (None, *range(1, n - 1)):
            found = list(enumerate_dissections(n, m, filt))
            assert [d.chords for d in found] == list(enumerate_by_interval_bounds(n, m, filt))
            if m is None:
                assert all(d == Dissection(d.n_vertices, d.chords) for d in found)


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_carried_quiddities_match_quiddity_exhaustively(filt):
    # the family functions read each member's quiddity off the cells the
    # walk logged; ``quiddity()`` sweeps the chords for the cells again
    for n in range(3, 12):
        members = itertools.zip_longest(
            enumerate_dissections(n, None, filt), _carried_quiddities(n, None, filt))
        for d, (chords, entries, _) in members:
            assert d == Dissection(n, tuple(chords))
            assert tuple(entries) == quiddity(d).entries, d


def test_carried_quiddities_fit_a_byte_at_the_enumeration_cap():
    # the first member of the cap's triangulations is the fan at its last
    # vertex, which lies in all 198 cells: the largest entry the packed
    # cells of a walk may hold
    chords, entries, _ = next(_carried_quiddities(ENUMERATE_N_CAP, ENUMERATE_N_CAP - 2,
                                                  CellFilter.all_cells()))
    d = Dissection(ENUMERATE_N_CAP, tuple(chords))
    assert d.chords == tuple((i, ENUMERATE_N_CAP - 1) for i in range(1, ENUMERATE_N_CAP - 2))
    assert entries[-1] == ENUMERATE_N_CAP - 2 == 198
    assert tuple(entries) == quiddity(d).entries


def _drop_a_planned_corner(monkeypatch):
    # the first base cell planned loses its second corner's byte from its
    # packed corners, a corner never an end of the base edge; the chords
    # it plans are unchanged
    real = enumeration._base_cells
    done = []

    def tampered(*args):
        for cell, step in real(*args):
            if not done:
                rest = cell & (cell - 1)  # without the first corner's byte
                cell -= rest & -rest
                done.append(True)
            yield cell, step

    monkeypatch.setattr(enumeration, "_base_cells", tampered)


def _drop_a_logged_corner(monkeypatch):
    # the last cell logged before the first member loses its last
    # corner's byte from its packed corners
    real = enumeration._walk

    def tampered(*args):
        for chords, log, low in real(*args):
            shift, cell = log[-1]
            log[-1] = (shift, cell - (1 << cell.bit_length() - 1))
            yield chords, log, low

    monkeypatch.setattr(enumeration, "_walk", tampered)


@pytest.fixture
def cold_tables():
    # walks keep each filter's finished plans and fills for later walks;
    # a test that counts or tampers with what a walk plans starts from
    # none kept, and leaves none of its own behind
    enumeration.clear_tables()
    yield
    enumeration.clear_tables()


@pytest.mark.parametrize("tamper", [_drop_a_planned_corner, _drop_a_logged_corner])
@pytest.mark.parametrize("family", [
    lambda: enumeration.count_quiddities(8, 3),
    lambda: enumeration.quiddity_classes(9, 4, ELL3),
    lambda: modular.three_periodic_quiddities(9),
], ids=["count_quiddities", "quiddity_classes", "three_periodic_quiddities"])
def test_cross_check_catches_a_skipped_corner(monkeypatch, cold_tables, tamper, family):
    tamper(monkeypatch)
    with pytest.raises(AssertionError, match="self-check"):
        family()


def test_enumeration_checks_its_arguments_before_the_first_item():
    for stream in (enumerate_dissections, _texts):
        with pytest.raises(DomainError):
            stream(2)
        with pytest.raises(ResourceLimitError):
            stream(ENUMERATE_N_CAP + 1, 2)


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_walk_keeps_the_first_low_chords_of_the_previous_item_exhaustively(filt):
    # ``low`` is exactly the prefix of working-list entries the walk did
    # not replace; the previous lists are copied, so their entries stay
    # alive and compare by identity
    for n in range(3, 12):
        for m in (None, *range(1, n - 1)):
            before: tuple[list, list] = ([], [])
            for chords, log, low in enumeration._walk(n, m, filt):
                for now, then in zip((chords, log), before):
                    kept = next((k for k, (a, b) in enumerate(zip(now, then)) if a is not b),
                                min(len(now), len(then)))
                    assert kept == low, (n, m, chords)
                before = (list(chords), list(log))


def _flags(filt):
    if filt.kind == "ell":
        return ("--ell", str(filt.ell))
    if filt.kind == "sizes":
        return ("--sizes", ",".join(map(str, sorted(filt.sizes))))
    return ()


def _enumerate_verb(*argv):
    out = io.StringIO()
    assert cli.main(["enumerate", *argv], out=out) == 0
    return out.getvalue()


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_texts_match_the_dissections_exhaustively(filt):
    # the ``enumerate`` verb writes these lines from the walk's chords,
    # with no ``Dissection`` and no ``format_dissection``, each from the
    # line before; the verb also cuts the stream short and writes JSON
    for n in range(3, 12):
        for m in (None, *range(1, n - 1)):
            want = [str(d) for d in enumerate_dissections(n, m, filt)]
            assert list(_texts(n, m, filt)) == want
            argv = ("--n", str(n), *(() if m is None else ("--m", str(m))), *_flags(filt))
            half = len(want) // 2
            assert _enumerate_verb(*argv, "--max-results", str(half)) == \
                "".join(text + "\n" for text in want[:half])
            assert _enumerate_verb(*argv, "--json") == cli._dumps(want) + "\n"


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_class_texts_match_the_quiddity_classes_exhaustively(filt):
    # the ``classes`` verb writes each key and member from the walk, with
    # no ``Quiddity`` and no ``Dissection``
    for n in range(3, 12):
        for m in range(1, n - 1):
            want = {str(q): sorted(str(d) for d in ds)
                    for q, ds in quiddity_classes(n, m, filt).items()}
            assert _class_texts(n, m, filt, FAMILY_CAP) == want


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_reach_masks_match_sums_over_every_split(filt):
    # the enumerator reads both the sub-polygon masks and the masks of
    # k >= 1 gaps spanning r edges off reach; the reference sums over
    # every split of the span into gaps
    for n in range(3, 26):
        reach = _reach_masks(n, filt.allowed_sizes_upto(n))
        ref_reach, ref_chain = reach_and_chain_by_sumsets(n, filt.allowed_sizes_upto(n))
        bits = [{c for c in range(n) if mask >> c & 1} for mask in reach]
        assert bits == ref_reach
        for k in range(1, len(ref_chain)):
            for r in range(k, n):
                assert ref_chain[k][r] == bits[r - k + 2], (n, k, r)


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_base_cells_match_every_corner_set(filt):
    # the planner skips the mask work of one-edge gaps and packs each
    # depth's corners once; the reference tries every corner set of every
    # size and sums over the corners, for each single wanted count and
    # for every count at once
    for span in range(1, 11):
        allowed = filt.allowed_sizes_upto(span + 1)
        reach = _reach_masks(span + 1, allowed)
        ref_reach, _ = reach_and_chain_by_sumsets(span + 1, allowed)
        for want in [*({c} for c in range(span)), set(range(span - 1))]:
            got = list(enumeration._base_cells(reach, allowed, span, sum(1 << c for c in want)))
            assert got == base_cells_by_corner_sets(ref_reach, allowed, span, want), (span, want)


@pytest.mark.parametrize("filt", SEVEN_FILTERS, ids=lambda f: f.describe())
def test_warm_walks_write_the_last_gap_fills_of_a_cold_walk(cold_tables, filt):
    # a walk whose tables hold every fill writes a last gap's fills in
    # one loop, with no choice point; it hands up what the cold walk did,
    # and records and plans nothing more
    for n in range(3, 11):
        for m in (None, *range(1, n - 1)):
            enumeration.clear_tables()
            cold = [(tuple(chords), tuple(log), low)
                    for chords, log, low in enumeration._walk(n, m, filt)]
            plans, fills = (dict(table) for table in enumeration._table(filt))
            warm = [(tuple(chords), tuple(log), low)
                    for chords, log, low in enumeration._walk(n, m, filt)]
            assert warm == cold, (n, m)
            assert enumeration._table(filt) == (plans, fills), (n, m)


@pytest.mark.parametrize("n, m, filt", [
    (12, 10, CellFilter.all_cells()), (13, 4, CellFilter.all_cells()),
    (12, 7, ELL3), (13, 5, ELL3),
    (12, 6, CellFilter.size_set({3, 4})), (13, 6, CellFilter.size_set({3, 4})),
], ids=str)
def test_families_past_the_order_oracle_are_exactly_the_family(n, m, filt):
    # every member rebuilds equal through the validating constructor, is
    # distinct and has m cells under the filter, and the closed form
    # counts them, so the enumerator yields the family and nothing else
    found = list(enumerate_dissections(n, m, filt))
    assert len(found) == count_dissections(n, m, filt)
    assert len(set(found)) == len(found)
    for d in found:
        assert d == Dissection(d.n_vertices, d.chords)
        profile = cell_size_profile(d)
        assert len(profile) == m and all(filt.allows(s) for s in profile)


def test_enumeration_refuses_polygons_over_its_cap():
    assert next(enumerate_dissections(ENUMERATE_N_CAP, 2)) is not None
    with pytest.raises(ResourceLimitError):
        next(enumerate_dissections(ENUMERATE_N_CAP + 1, 2))


@pytest.mark.parametrize("n, m, filt", [
    pytest.param(30, None, CellFilter.all_cells(), id="30-all"),
    pytest.param(200, None, CellFilter.all_cells(), id="200-all"),
    # every cell a quadrilateral; every cell a hexagon; triangles and hexagons
    pytest.param(30, 14, CellFilter.size_set({3, 4}), id="30-sizes=3,4"),
    pytest.param(200, 99, CellFilter.size_set({3, 4}), id="200-sizes=3,4"),
    pytest.param(198, 49, CellFilter.size_set({3, 6}), id="198-sizes=3,6"),
    pytest.param(200, 66, ELL3, id="200-ell=3"),
])
def test_first_dissection_plans_at_most_n_base_cells(monkeypatch, cold_tables, n, m, filt):
    # a shape's base cells are planned one at a time, as the search asks
    # for them, so the first member plans one per sub-polygon it places;
    # a small sub-polygon's fills are recorded as the walk places them,
    # so they plan nothing more
    real = enumeration._base_cells
    planned = []

    def counted(*args):
        for plan in real(*args):
            planned.append(plan)
            yield plan

    monkeypatch.setattr(enumeration, "_base_cells", counted)
    next(enumerate_dissections(n, m, filt))
    assert len(planned) <= n


def _cold_walk(n, m, filt):
    enumeration.clear_tables()
    return [(list(chords), list(log), low) for chords, log, low in enumeration._walk(n, m, filt)]


@pytest.mark.parametrize("filt", [CellFilter.all_cells(), ELL3, CellFilter.size_set({3, 4})],
                         ids=lambda f: f.describe())
def test_interleaved_walks_of_one_filter_are_each_a_cold_walk(cold_tables, filt):
    # a walk reads the plans and fills that other walks of its filter
    # finished, but keeps its own unfinished ones to itself: walks of
    # N = 11, 5 and 11 advanced in turn, one item each, the second 11
    # starting when the first has run part way
    want = {n: _cold_walk(n, None, filt) for n in (5, 11)}
    enumeration.clear_tables()
    first = enumeration._walk(11, None, filt)
    got: dict[int, list] = {0: [], 1: [], 2: []}
    for item in itertools.islice(first, len(want[11]) // 3):
        got[0].append((list(item[0]), list(item[1]), item[2]))
    walks = {0: first, 1: enumeration._walk(5, None, filt), 2: enumeration._walk(11, None, filt)}
    while walks:
        for k in list(walks):
            item = next(walks[k], None)
            if item is None:
                del walks[k]
            else:
                got[k].append((list(item[0]), list(item[1]), item[2]))
    assert got[0] == want[11]
    assert got[1] == want[5]
    assert got[2] == want[11]
    plans, fills = enumeration._table(filt)
    assert plans and fills  # the later walks had a table to read


def test_threads_walking_one_filter_each_make_a_cold_walk(cold_tables):
    # the kept table is shared by every walk of the filter in the process;
    # two threads that walk it at once, from an empty table, each yield
    # what a cold walk yields (a partly made plan shared between them
    # would be asked for its next item by both at once)
    filt = CellFilter.size_set({3, 4})
    jobs = [(10, None), (9, None), (10, 5), (8, None)]
    want = [_cold_walk(*job, filt) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # so that the walks take turns often
    try:
        for _ in range(5):
            enumeration.clear_tables()
            got: dict[int, object] = {}
            start = threading.Barrier(2)

            def walk(k):
                start.wait()
                try:
                    got[k] = [[(list(chords), list(log), low)
                               for chords, log, low in enumeration._walk(*job, filt)]
                              for job in (jobs if k == 0 else jobs[::-1])]
                except Exception as exc:  # compared, and so shown, below
                    got[k] = exc

            threads = [threading.Thread(target=walk, args=(k,)) for k in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert got[0] == want
            assert got[1] == want[::-1]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("filt", [
    CellFilter.all_cells(), CellFilter.ell_periodic(2), CellFilter.size_set({3, 4}),
], ids=lambda f: f.describe())
@pytest.mark.parametrize("n", [16, 20, 24, 30])
def test_few_cell_families_take_time_proportional_to_their_size(n, filt):
    # the largest, 54,405 dissections of the 30-gon into 3 cells, takes
    # about 1 s; a search that tries every base cell takes minutes
    for m in (2, 3):
        start = time.perf_counter()
        found = sum(1 for _ in enumerate_dissections(n, m, filt))
        assert found == count_dissections(n, m, filt)
        assert time.perf_counter() - start < 5


def test_total_counts_match_recurrence_oracle():
    for n in range(3, 11):
        total = sum(count_dissections(n, m) for m in range(1, n - 1))
        assert total == total_dissections(n - 2)


def test_no_duplicates_and_canonical_forms():
    for n in range(3, 9):
        seen = set()
        for d in enumerate_dissections(n):
            assert d not in seen
            seen.add(d)
            assert d.chords == tuple(sorted(d.chords))


def test_filters_restrict_cell_sizes():
    for d in enumerate_dissections(9, None, ELL3):
        assert all(s % 3 == 0 for s in cell_size_profile(d))
    for d in enumerate_dissections(9, None, CellFilter.size_set({3, 4})):
        assert all(s in (3, 4) for s in cell_size_profile(d))


def test_period_one_equals_unrestricted():
    ell1 = CellFilter.ell_periodic(1)
    for n in range(3, 9):
        for m in range(1, n - 1):
            assert count_dissections(n, m, ell1) == count_dissections(n, m)


def test_period_two_means_odd_cells():
    ell2 = CellFilter.ell_periodic(2)
    for n in range(3, 10):
        odd = {d for m in range(1, n - 1) for d in enumerate_dissections(n, m, ell2)}
        by_hand = {
            d for m in range(1, n - 1) for d in enumerate_dissections(n, m)
            if all(s % 2 == 1 for s in cell_size_profile(d))
        }
        assert odd == by_hand


def test_equal_size_matches_single_size_set():
    assert count_dissections(8, 2, CellFilter.equal_size(5)) == \
        count_dissections(8, 2, CellFilter.size_set({5}))


def test_count_agrees_with_closed_forms_small():
    for n_vertices in range(3, 10):
        n = n_vertices - 2
        for m in range(1, n_vertices - 1):
            assert count_dissections(n_vertices, m) == formulas.kirkman_cayley(n, m)
            for ell in (1, 2, 3):
                assert count_dissections(n_vertices, m, CellFilter.ell_periodic(ell)) == \
                    formulas.ell_periodic_count(n, m, ell)
            assert count_dissections(n_vertices, m, CellFilter.size_set({3, 4})) == \
                formulas.tri_quad_count(n, m)


def test_quiddity_count_octagon():
    assert count_quiddities(8, 3, ELL3) == 34
    assert count_quiddities(7, 2, ELL3) == 7
    assert count_quiddities(6, 4) == 14


def test_quiddity_classes_octagon_structure():
    classes = quiddity_classes(8, 3, ELL3)
    sizes = sorted(len(ds) for ds in classes.values())
    assert sizes == [1] * 32 + [2, 2]
    # the paired classes are rotations of one another
    for ds in classes.values():
        if len(ds) == 2:
            assert ds[1] in dihedral_orbit(ds[0])


@pytest.mark.parametrize("cell_filter", [
    CellFilter.all_cells(), ELL3, CellFilter.size_set({3, 4}),
], ids=str)
def test_quiddity_classes_partition_each_family(cell_filter):
    for n in range(3, 11):
        for m in range(1, n - 1):
            classes = quiddity_classes(n, m, cell_filter)
            for q, ds in classes.items():
                assert all(quiddity(d) == q for d in ds), (n, m, q)
            assert len(classes) == count_quiddities(n, m, cell_filter), (n, m)
            assert sum(len(ds) for ds in classes.values()) == \
                count_dissections(n, m, cell_filter), (n, m)


def test_pentagon_triangulation_classes_are_singletons():
    classes = quiddity_classes(5, 3)
    assert len(classes) == 5
    assert all(len(ds) == 1 for ds in classes.values())


def test_class_table_consistency():
    for q, ds in quiddity_classes(8, 3, ELL3).items():
        for d in ds:
            assert quiddity(d) == q
            assert len(d.chords) == 2  # m - 1 chords


def test_materialization_cap():
    with pytest.raises(ResourceLimitError):
        quiddity_classes(12, 10, max_dissections=10)


def test_quiddity_count_is_refused_over_the_family_cap():
    # 659,736 dissections; enumerating them took about a minute
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count_quiddities(14, 6)
    assert time.perf_counter() - start < 1


def test_out_of_range_arguments():
    with pytest.raises(DomainError):
        count_dissections(2, 1)
    with pytest.raises(DomainError):
        count_dissections(6, 0)
    with pytest.raises(DomainError):
        count_dissections(6, 5)
    with pytest.raises(DomainError):
        list(enumerate_dissections(6, 99))


def test_filter_validation():
    with pytest.raises(DomainError):
        CellFilter.ell_periodic(0)
    with pytest.raises(DomainError):
        CellFilter.size_set(set())
    with pytest.raises(DomainError):
        CellFilter.size_set({2})


def test_enumeration_order_is_deterministic():
    first = [str(d) for d in enumerate_dissections(7)]
    second = [str(d) for d in enumerate_dissections(7)]
    assert first == second


def test_non_dihedral_equal_quiddity_pair_at_nine():
    # smallest equal-quiddity pair not congruent under the dihedral
    # group; the cell-size profiles already differ
    from quiddity import parse_dissection

    a = parse_dissection("9:2-8,4-6")
    b = parse_dissection("9:2-4,6-8")
    assert quiddity(a) == quiddity(b)
    assert b not in dihedral_orbit(a)
    assert cell_size_profile(a) != cell_size_profile(b)
    assert b in quiddity_classes(9, 3)[quiddity(a)]


def test_total_quiddity_counts_match_closed_form_column_sums():
    # distinct quiddities over all cell counts, brute force vs the
    # summed closed form; totals frozen for the two largest polygons
    expected_totals = {12: 27201, 13: 100984}
    for n_vertices in range(3, 14):
        n = n_vertices - 2
        seen = set()
        for m in range(1, n_vertices - 1):
            if (n - m) % 3:
                continue
            for d in enumerate_dissections(n_vertices, m, ELL3):
                seen.add(quiddity(d).entries)
        assert len(seen) == sum(
            formulas.quiddity_count_3periodic(n, m) for m in range(n + 1)
        )
        if n_vertices in expected_totals:
            assert len(seen) == expected_totals[n_vertices]
