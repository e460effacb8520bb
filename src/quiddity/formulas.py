"""Closed-form counts: the prescribed-cell-size dissection count and
its special cases (Catalan, Kirkman-Cayley, Fuss, periodic and
triangle/quadrilateral dissection numbers), and the count of distinct
quiddities of 3-periodic dissections.

All results are exact big integers.  Intermediate rationals (the
3-periodic quiddity count sums per-term fractions) must cancel; a
non-integral total raises, since it can only mean an implementation
bug.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from .core import DomainError, ResourceLimitError

# Composition DP steps refused beyond (about 2 s on a 2-core machine).
COMPOSITION_STEP_CAP = 35_000_000


def extended_binomial(a: int, b: int) -> int:
    """Binomial coefficient with the degenerate conventions needed by
    the counting formulas here.

    C(a, 0) = 1 for every integer a (including negative a), and
    C(a, b) = 0 for b < 0.  For b >= 1 the first argument must be
    nonnegative; the quiddity-count sum never produces that case, so
    hitting it is a bug.
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    if a < 0:
        raise AssertionError(f"binomial({a}, {b}) with negative row is out of scope")
    return comb(a, b) if a >= b else 0


def _check_nonneg(**kwargs: int) -> None:
    for name, value in kwargs.items():
        if value < 0:
            raise DomainError(f"{name} must be nonnegative, got {value}")


def _prescribed_cells(n: int, m: int, compositions: int, what: str) -> int:
    # C(n+m, m)/(n+1) times the number of compositions of n into m parts
    # (a part k per cell of size k+2); only the product is integral.
    value = compositions * comb(n + m, m)
    q, r = divmod(value, n + 1)
    if r:
        raise AssertionError(f"{what} is not an integer: {value}/{n + 1}")
    return q


def _compositions(n: int, m: int, parts) -> int:
    """Number of ordered m-tuples drawn from the set ``parts`` summing to n."""
    parts = [k for k in parts if k <= n]
    row = [1] + [0] * n  # row[v]: tuples of the current length summing to v
    for _ in range(m):
        row = [sum(row[v - k] for k in parts if k <= v) for v in range(n + 1)]
    return row[n]


def dissection_count(n: int, m: int, parts) -> int:
    """Number of dissections of the (n+2)-gon into m cells whose sizes
    are drawn from {k + 2 : k in parts}.

    C(n+m, m)/(n+1) times the number of compositions of n into m parts
    from ``parts`` (the prescribed-cell-size count of Przytycki and
    Sikora); every closed form below is a special case.  Follows the
    2-gon convention D(0, 0) = 1 and D(0, m) = 0 for m > 0.  Refuses a
    composition table of over ``COMPOSITION_STEP_CAP`` steps up front.
    """
    _check_nonneg(n=n, m=m)
    parts = set(parts)
    if min(parts, default=1) < 1:
        raise DomainError("composition parts must be positive (cell sizes at least 3)")
    # The row DP fills m rows of n+1 entries, each summing over the
    # parts up to n; an entry's own overhead is about 12 part additions.
    steps = m * (n + 1) * (sum(1 for k in parts if k <= n) + 12)
    if steps > COMPOSITION_STEP_CAP:
        raise ResourceLimitError(
            f"counting the {n + 2}-gon's dissections into {m} cells takes about "
            f"{steps} steps, over the cap of {COMPOSITION_STEP_CAP}"
        )
    return _prescribed_cells(n, m, _compositions(n, m, parts), "dissection_count")


def catalan(n: int) -> int:
    """Number of triangulations of the (n+2)-gon: C(2n, n)/(n+1)."""
    _check_nonneg(n=n)
    return _prescribed_cells(n, n, 1, "catalan")


def kirkman_cayley(n: int, m: int) -> int:
    """Number of dissections of the (n+2)-gon into m cells.

    D(n, m) = C(n-1, m-1) * C(n+m, m) / (n+1), with the degenerate
    2-gon convention D(0, 0) = 1 and D(0, m) = 0 for m > 0.
    """
    _check_nonneg(n=n, m=m)
    if n == 0:
        return 1 if m == 0 else 0
    return _prescribed_cells(n, m, extended_binomial(n - 1, m - 1), "kirkman_cayley")


def fuss(n: int, m: int) -> int:
    """Number of dissections of the (n+2)-gon into m cells of equal
    size: C(n+m, m)/(n+1).  Requires m >= 1 and m dividing n."""
    _check_nonneg(n=n, m=m)
    if m < 1:
        raise DomainError(f"cell count must be at least 1, got {m}")
    if n % m != 0:
        raise DomainError(f"equal-size count needs m | n, got n={n}, m={m}")
    return _prescribed_cells(n, m, 1, "fuss")


def ell_periodic_count(n: int, m: int, ell: int) -> int:
    """Number of dissections of the (n+2)-gon into m cells whose sizes
    are all congruent to 3 mod ``ell``.

    Zero unless n == m (mod ell); otherwise
    C(m-1+(n-m)/ell, m-1) * C(n+m, m) / (n+1).
    """
    _check_nonneg(n=n, m=m)
    if m < 1:
        raise DomainError(f"cell count must be at least 1, got {m}")
    if ell < 1:
        raise DomainError(f"period must be at least 1, got {ell}")
    if m > n or (n - m) % ell != 0:
        return 0
    compositions = extended_binomial(m - 1 + (n - m) // ell, m - 1)
    return _prescribed_cells(n, m, compositions, "ell_periodic_count")


def tri_quad_count(n: int, m: int) -> int:
    """Number of dissections of the (n+2)-gon into m cells that are all
    triangles or quadrilaterals: C(m, n-m) * C(n+m, m) / (n+1), zero
    when n-m is outside [0, m]."""
    _check_nonneg(n=n, m=m)
    if m < 1:
        raise DomainError(f"cell count must be at least 1, got {m}")
    if not 0 <= n - m <= m:
        return 0
    return _prescribed_cells(n, m, comb(m, n - m), "tri_quad_count")


def quiddity_count_3periodic(n: int, m: int) -> int:
    """Number of distinct quiddities of 3-periodic dissections of the
    (n+2)-gon into m cells.

    Zero unless n == m (mod 3); otherwise the sum over s of

        (n-m-3s+2)/(n-s+1) * C(m+s-2, s) * C(n+m-s-1, m-1)

    for 0 <= s <= (n-m)/3.  Individual terms need not be integers, so
    they are accumulated as exact fractions; the total is asserted
    integral.  Follows the 2-gon convention at (0, 0).
    """
    _check_nonneg(n=n, m=m)
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0 or m > n or (n - m) % 3 != 0:
        return 0
    total = Fraction(0)
    for s in range((n - m) // 3 + 1):
        term = Fraction(n - m - 3 * s + 2, n - s + 1)
        term *= extended_binomial(m + s - 2, s)
        term *= extended_binomial(n + m - s - 1, m - 1)
        total += term
    if total.denominator != 1:
        raise AssertionError(f"quiddity count for ({n}, {m}) is not integral: {total}")
    return total.numerator


def quiddity_table_diagonals(max_n: int) -> dict[int, list[tuple[int, int]]]:
    """The (n, m) entries of the 3-periodic quiddity table with
    n <= max_n, by diagonal: m = n - offset for offsets 0, 3, 6, 9, 12,
    keeping m >= 1 and the 2-gon entry (0, 0)."""
    return {
        offset: [(n, n - offset) for n in range(max_n + 1) if n - offset >= 1 or n == offset == 0]
        for offset in (0, 3, 6, 9, 12)
    }
