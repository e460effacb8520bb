"""Continued-fraction expansions and the strip triangulation."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiddity import DomainError, quiddity
from quiddity.contfrac import (
    HirzebruchJungContinuedFraction,
    RegularContinuedFraction,
    eval_hj,
    eval_regular,
    hj_expansion,
    regular_to_hj,
    strip_triangulation,
)

from oracles import eval_hj_by_fractions, eval_regular_by_fractions, hj_terms_by_fractions


def _compositions(total, least):
    """Every tuple of terms >= ``least`` summing to ``total``."""
    if total == 0:
        yield ()
    for first in range(least, total + 1):
        for rest in _compositions(total - first, least):
            yield (first, *rest)


def test_seven_fifths_example():
    cf = RegularContinuedFraction((1, 2, 1, 1))
    assert eval_regular(cf) == Fraction(7, 5)
    hj = regular_to_hj(cf)
    assert hj.terms == (2, 2, 3)
    assert eval_hj(hj) == Fraction(7, 5)


def test_simple_evaluations():
    assert eval_regular(RegularContinuedFraction((1, 1))) == 2
    assert eval_regular(RegularContinuedFraction((2, 3))) == Fraction(7, 3)
    assert eval_hj(HirzebruchJungContinuedFraction((2,))) == 2
    assert eval_hj(HirzebruchJungContinuedFraction((3, 2))) == Fraction(5, 2)


def test_conversions():
    assert regular_to_hj(RegularContinuedFraction((1, 1))).terms == (2,)
    assert regular_to_hj(RegularContinuedFraction((2, 3))).terms == (3, 2, 2)


def test_term_validation():
    with pytest.raises(DomainError):
        RegularContinuedFraction(())
    with pytest.raises(DomainError):
        RegularContinuedFraction((1, 2, 1))  # odd length
    with pytest.raises(DomainError):
        RegularContinuedFraction((0, 1))
    with pytest.raises(DomainError):
        HirzebruchJungContinuedFraction((2, 1))
    with pytest.raises(DomainError):
        hj_expansion(Fraction(1, 2))


def test_integer_continuants_match_fraction_steps():
    # the evaluations step integer continuants and the expansion divides
    # integers; the reference steps Fractions one term at a time
    for total in range(1, 13):
        for terms in _compositions(total, 1):
            if len(terms) % 2 == 0:
                cf = RegularContinuedFraction(terms)
                assert eval_regular(cf) == eval_regular_by_fractions(terms), terms
                assert regular_to_hj(cf).terms == hj_terms_by_fractions(
                    eval_regular_by_fractions(terms)), terms
    for total in range(2, 15):
        for terms in _compositions(total, 2):
            value = eval_hj(HirzebruchJungContinuedFraction(terms))
            assert value == eval_hj_by_fractions(terms), terms
            assert hj_expansion(value).terms == hj_terms_by_fractions(value) == terms
    for p in range(2, 61):
        for q in range(1, p):
            value = Fraction(p, q)
            assert hj_expansion(value).terms == hj_terms_by_fractions(value), value
            assert eval_hj(hj_expansion(value)) == value


@pytest.mark.parametrize("value", [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-7, 3)])
def test_expansion_refuses_values_of_at_most_one_as_before(value):
    with pytest.raises(DomainError) as want:
        hj_terms_by_fractions(value)
    with pytest.raises(DomainError) as got:
        hj_expansion(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [2.5, "3", None], ids=repr)
def test_expansion_refuses_what_is_not_an_int_or_a_fraction(value):
    # a float has no exact numerator, and a string or None no order with 1
    with pytest.raises(DomainError, match="needs an int or a Fraction"):
        hj_expansion(value)


def test_expansion_takes_an_int():
    assert hj_expansion(3).terms == (3,)


def test_strip_of_seven_fifths():
    d, tops = strip_triangulation(RegularContinuedFraction((1, 2, 1, 1)))
    assert d.n_vertices == 7
    assert len(d.chords) == 4
    q = quiddity(d)
    assert tuple(q.entries[v] for v in tops[:-1]) == (2, 2, 3)


def test_strip_of_two():
    d, tops = strip_triangulation(RegularContinuedFraction((1, 1)))
    assert str(d) == "4:1-3"
    q = quiddity(d)
    assert tuple(q.entries[v] for v in tops[:-1]) == (2,)


def test_strip_sizes():
    cf = RegularContinuedFraction((2, 3, 1, 2))
    d, tops = strip_triangulation(cf)
    assert d.n_vertices == sum(cf.terms) + 2
    assert len(d.chords) == d.n_vertices - 3  # a triangulation
    assert len(tops) == 1 + sum(cf.terms[1::2])


regular_cfs = st.lists(st.integers(1, 6), min_size=2, max_size=10).filter(
    lambda terms: len(terms) % 2 == 0 and sum(terms) <= 20
).map(lambda terms: RegularContinuedFraction(tuple(terms)))


@settings(max_examples=150)
@given(regular_cfs)
def test_round_trip_is_exact(cf):
    value = eval_regular(cf)
    assert value > 1
    hj = regular_to_hj(cf)
    assert eval_hj(hj) == value
    assert all(t >= 2 for t in hj.terms)


strip_cfs = st.lists(st.integers(1, 4), min_size=2, max_size=8).filter(
    lambda terms: len(terms) % 2 == 0 and sum(terms) <= 14
).map(lambda terms: RegularContinuedFraction(tuple(terms)))


@settings(max_examples=120)
@given(strip_cfs)
def test_top_quiddity_reads_off_minus_sign_terms(cf):
    d, tops = strip_triangulation(cf)
    q = quiddity(d)
    assert tuple(q.entries[v] for v in tops[:-1]) == regular_to_hj(cf).terms
