"""Closed-form counting formulas and their degenerate conventions."""
from __future__ import annotations

import itertools
import time
from collections import Counter
from math import comb

import pytest

from quiddity import DomainError, ResourceLimitError, formulas
from quiddity.formulas import (
    _compositions,
    catalan,
    dissection_count,
    ell_periodic_count,
    extended_binomial,
    fuss,
    kirkman_cayley,
    quiddity_count_3periodic,
    tri_quad_count,
)
from quiddity.series import compose_q, p_equation, solve_fixed_point
from quiddity.verification import known_quiddity_table


def test_catalan_values():
    assert catalan(0) == 1
    assert catalan(4) == 14
    assert catalan(9) == 4862
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_rejects_negative():
    with pytest.raises(DomainError):
        catalan(-1)


def test_kirkman_cayley_values():
    assert kirkman_cayley(4, 2) == 9
    assert kirkman_cayley(0, 0) == 1
    assert kirkman_cayley(0, 3) == 0
    assert kirkman_cayley(5, 1) == 1
    for n in range(13):
        assert kirkman_cayley(n, n) == catalan(n)


def test_fuss_values():
    assert fuss(4, 4) == 14
    assert fuss(4, 2) == 3
    assert fuss(6, 2) == 4


def test_fuss_rejects_non_divisor():
    with pytest.raises(DomainError):
        fuss(5, 2)


def test_ell_periodic_values():
    assert ell_periodic_count(6, 3, 3) == 36
    assert ell_periodic_count(5, 2, 3) == 7
    assert ell_periodic_count(6, 2, 3) == 0  # 6 != 2 mod 3
    for n in range(1, 11):
        for m in range(1, n + 1):
            assert ell_periodic_count(n, m, 1) == kirkman_cayley(n, m)


def test_tri_quad_values():
    assert tri_quad_count(2, 2) == 2
    assert tri_quad_count(3, 2) == 5
    assert tri_quad_count(4, 3) == 21
    assert tri_quad_count(7, 3) == 0  # needs n - m <= m


def test_quiddity_count_values():
    assert quiddity_count_3periodic(6, 3) == 34
    assert quiddity_count_3periodic(4, 1) == 1
    assert quiddity_count_3periodic(10, 4) == 758
    assert quiddity_count_3periodic(5, 3) == 0  # 5 != 3 mod 3


def test_quiddity_count_catalan_diagonal():
    for n in range(15):
        assert quiddity_count_3periodic(n, n) == catalan(n)


def test_full_known_table():
    for (n, m), want in known_quiddity_table(14).items():
        assert quiddity_count_3periodic(n, m) == want, (n, m)


def test_table_steps_along_its_diagonals_to_the_closed_form():
    # each diagonal's binomial is stepped from the previous entry, never
    # recomputed, so every entry is checked against the closed form
    table = formulas.quiddity_table(200)
    entries = [e for diagonal in formulas.quiddity_table_diagonals(200).values()
               for e in diagonal]
    assert sorted(table) == sorted(entries)
    for (n, m), value in table.items():
        assert value == quiddity_count_3periodic(n, m), (n, m)
    assert formulas.quiddity_table(14) == known_quiddity_table(14)


def test_quiddities_never_outnumber_dissections():
    for n in range(1, 15):
        for m in range(1, n + 1):
            assert quiddity_count_3periodic(n, m) <= ell_periodic_count(n, m, 3)


def test_integrality_over_a_wide_range():
    # every operation returns ints with no internal assertion firing
    for n in range(31):
        catalan(n)
        for m in range(n + 2):
            kirkman_cayley(n, m)
            quiddity_count_3periodic(n, m)
            if m >= 1:
                tri_quad_count(n, m)
                for ell in (1, 2, 3, 4, 5):
                    ell_periodic_count(n, m, ell)
            if m >= 1 and n % m == 0:
                fuss(n, m)


def test_extended_binomial_conventions():
    assert extended_binomial(-1, 0) == 1
    assert extended_binomial(-5, 0) == 1
    assert extended_binomial(3, -1) == 0
    assert extended_binomial(5, 2) == 10
    assert extended_binomial(2, 5) == 0
    with pytest.raises(AssertionError):
        extended_binomial(-1, 1)


def test_negative_arguments_rejected():
    for fn in (lambda: kirkman_cayley(-1, 0),
               lambda: quiddity_count_3periodic(3, -1),
               lambda: tri_quad_count(-2, 1),
               lambda: ell_periodic_count(4, 1, 0)):
        with pytest.raises(DomainError):
            fn()


PART_SETS = [set(), {1}, {2}, {1, 2}, {2, 3}, {1, 3, 5}, {2, 5, 7}, {4}, set(range(1, 13)),
             {1, 7}, {2, 6, 14}]


def test_compositions_match_brute_force_tuples():
    for parts in PART_SETS:
        for m in range(6):
            sums = Counter(map(sum, itertools.product(parts, repeat=m)))
            for n in range(16):
                assert _compositions(n, m, sorted(parts)) == sums[n], (n, m, parts)


# every n <= 40, and a few up to 200, for each m
WIDE_N = [*range(41), 97, 150, 200]


def test_dissection_count_matches_the_closed_forms():
    # each closed form counts its compositions by a binomial, not by the
    # recurrence
    for n in WIDE_N:
        every = range(1, n + 1)
        for m in range(n + 2):
            assert dissection_count(n, m, every) == kirkman_cayley(n, m), (n, m)
            if m == 0:
                continue
            assert dissection_count(n, m, {1, 2}) == tri_quad_count(n, m), (n, m)
            for ell in (1, 2, 3, 5):
                assert dissection_count(n, m, range(1, n + 1, ell)) == \
                    ell_periodic_count(n, m, ell), (n, m, ell)
            if m <= n and n % m == 0:
                assert dissection_count(n, m, {n // m}) == fuss(n, m), (n, m)


def test_dissection_count_refuses_up_front():
    with pytest.raises(ResourceLimitError, match="steps"):
        dissection_count(2998, 500, range(1, 2999))  # 3.1 million terms
    with pytest.raises(ResourceLimitError, match="digits"):
        dissection_count(19998, 10000, range(1, 19999))  # about 10^8286


def test_dissection_count_reads_a_range_without_listing_it():
    # parts given as a range, as a list and as a set count the same
    for n in (12, 30, 61):
        for m in range(1, n + 1):
            for parts in (range(1, n + 1), range(1, n + 1, 3), range(2, n + 1, 4)):
                want = dissection_count(n, m, set(parts))
                assert dissection_count(n, m, parts) == dissection_count(n, m, list(parts)) == want
    # a recurrence over every part of a huge polygon is refused by its
    # closed-form step count, and one period as large as the polygon is
    # answered by stepping over its multiples only
    n = 10**8
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="steps"):
        dissection_count(n, 3, range(1, n + 1))
    assert dissection_count(n, 3, range(1, n + 1, n - 3)) == ell_periodic_count(n, 3, n - 3)
    assert time.perf_counter() - start < 0.1


def test_dissection_count_counts_its_loop_into_the_step_cap(monkeypatch):
    # parts {1, n-3, n-2} give three terms but a loop of J = n - 3
    # iterations, so the step estimate is J: refused at once at 10^8, and
    # answered exactly at the cap (three compositions: 1 + 1 + (n-2) in
    # any order)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="takes about 99999997 steps"):
        dissection_count(10**8, 3, [1, 10**8 - 3, 10**8 - 2])
    assert time.perf_counter() - start < 0.1
    monkeypatch.setattr(formulas, "COMPOSITION_STEP_CAP", 997)
    assert dissection_count(1000, 3, [1, 997, 998]) == 3 * comb(1003, 3) // 1001
    with pytest.raises(ResourceLimitError, match="steps"):
        dissection_count(1001, 3, [1, 998, 999])


def test_dissection_count_is_zero_without_a_composition():
    # 10,000 parts of 2 sum to more than 19,999: zero, not refused by the
    # digit estimate; likewise no allowed part at all
    assert dissection_count(19999, 10000, {2}) == 0
    assert dissection_count(19998, 10000, {3, 5}) == 0
    assert dissection_count(19998, 10000, []) == 0


def test_quiddity_count_matches_the_series_coefficients():
    q = compose_q(solve_fixed_point(p_equation, 30))
    for n in range(31):
        for m in range(n + 1):
            assert quiddity_count_3periodic(n, m) == q.coefficient(n, m), (n, m)
