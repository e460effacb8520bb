"""Continued fractions and the strip triangulation linking them to
quiddities.

A rational r/s > 1 has a plus-sign expansion with positive terms of
even length and a minus-sign (Hirzebruch-Jung) expansion with terms
at least 2.  Laying out sum(a_i) triangles in a horizontal strip,
alternating a_1 base-down fans and a_2 base-up fans and so on, the
quiddity entries along the top row reproduce the minus-sign terms.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .core import Dissection, DomainError, Value


class RegularContinuedFraction(Value):
    """Plus-sign continued fraction: terms a_i >= 1, even length."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[int]) -> None:
        terms = tuple(terms)
        if not terms:
            raise DomainError("continued fraction needs at least one term")
        if len(terms) % 2:
            raise DomainError("plus-sign expansion must have even length")
        if any(t < 1 for t in terms):
            raise DomainError("plus-sign terms must be at least 1")
        object.__setattr__(self, "terms", terms)


class HirzebruchJungContinuedFraction(Value):
    """Minus-sign continued fraction: every term at least 2."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[int]) -> None:
        terms = tuple(terms)
        if not terms:
            raise DomainError("continued fraction needs at least one term")
        if any(t < 2 for t in terms):
            raise DomainError("minus-sign terms must be at least 2")
        object.__setattr__(self, "terms", terms)


def eval_regular(cf: RegularContinuedFraction) -> Fraction:
    """Exact value a_1 + 1/(a_2 + 1/(...)), always > 1 in lowest terms,
    from the integer continuants: p/q steps to a + q/p = (a p + q)/p."""
    p, q = cf.terms[-1], 1
    for a in reversed(cf.terms[:-1]):
        p, q = a * p + q, p
    return Fraction(p, q)


def eval_hj(cf: HirzebruchJungContinuedFraction) -> Fraction:
    """Exact value c_1 - 1/(c_2 - 1/(...)), always > 1 in lowest terms,
    from the integer continuants: p/q steps to c - q/p = (c p - q)/p."""
    p, q = cf.terms[-1], 1
    for c in reversed(cf.terms[:-1]):
        p, q = c * p - q, p
    return Fraction(p, q)


def hj_expansion(value: Fraction) -> HirzebruchJungContinuedFraction:
    """Minus-sign expansion of a rational > 1 by ceiling-division
    Euclid on its numerator p and denominator q: c = ceil(p/q), then on
    to 1/(c - p/q) = q/(c q - p)."""
    if value <= 1:
        raise DomainError(f"minus-sign expansion needs a value > 1, got {value}")
    p, q = value.numerator, value.denominator
    terms = []
    while q:
        c = -(-p // q)
        terms.append(c)
        p, q = q, c * q - p
    return HirzebruchJungContinuedFraction(terms)


def regular_to_hj(cf: RegularContinuedFraction) -> HirzebruchJungContinuedFraction:
    """The minus-sign expansion of the same rational; evaluating both
    gives the same value exactly."""
    return hj_expansion(eval_regular(cf))


def strip_triangulation(
    cf: RegularContinuedFraction,
) -> tuple[Dissection, tuple[int, ...]]:
    """Triangulated strip whose fan sizes read off the plus-sign terms.

    The strip has 1 + sum of odd-position terms bottom vertices and
    1 + sum of even-position terms top vertices.  Returns the
    triangulation of the (sum+2)-gon (bottom row first, then the top
    row right to left, counterclockwise) together with the polygon
    indices of the top vertices left to right.  The quiddity entries at
    all but the last top vertex are the minus-sign terms.
    """
    bottom = 1 + sum(cf.terms[0::2])
    top = 1 + sum(cf.terms[1::2])

    def top_vertex(k: int) -> int:
        # top row runs right to left after the bottom row
        return bottom + (top - 1 - k)

    # Each triangle steps one end of the rung (bottom p, top q) along its
    # row.  The rungs between triangles are the chords; the first rung,
    # (0, n-1), and the last, (bottom-1, bottom), are polygon edges.
    chords = []
    p = q = 0
    for pos, a in enumerate(cf.terms):
        for _ in range(a):
            if pos % 2 == 0:
                p += 1
            else:
                q += 1
            chords.append((p, top_vertex(q)))
    chords.pop()
    dissection = Dissection(bottom + top, tuple(chords))
    return dissection, tuple(top_vertex(k) for k in range(top))
