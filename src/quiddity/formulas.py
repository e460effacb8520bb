"""Closed-form counts: the prescribed-cell-size dissection count and
its special cases (Catalan, Kirkman-Cayley, Fuss, periodic and
triangle/quadrilateral dissection numbers), and the count of distinct
quiddities of 3-periodic dissections.

All results are exact big integers, computed in integer arithmetic:
every division (the prescribed-cell count by n+1, each step of the
composition recurrence, the 3-periodic quiddity sum by its common
denominator) must be exact, and one that is not raises, since it can
only mean an implementation bug.
"""
from __future__ import annotations

from bisect import bisect_right
from math import comb, gcd, lcm, lgamma, log

from .core import DomainError, ResourceLimitError

# Largest composition recurrence, in terms summed or loop iterations if
# more (the J |parts| work of ``_compositions``), and largest count, in
# digits of C(n+m, m)/(n+1), which a nonzero count has at least, that
# ``dissection_count`` takes, each refused up front.  The digit cap is
# Python's default limit on printing an int; the recurrence's numbers,
# at most C(n+m, m), stay about that size.  The slowest counts admitted,
# with every part allowed (or every cell but the triangle), J near 2,235
# and m as large as the digit cap lets it (6,159 cells of an 8,396-gon),
# take 1.7-2.1 s on a 2-core machine; ``count --n 2000 --m 1000``
# (500,000 terms) 0.15 s.  A size set with few shifts, all near J, is
# bounded by the J/g loop: ``count --n 2499999 --m 3 --sizes
# 3,2499996,2499997`` takes 1.5-2.0 s.
COMPOSITION_STEP_CAP = 2_500_000
COUNT_DIGIT_CAP = 4300


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


def _log10_binomial(a: int, b: int) -> float:
    return (lgamma(a + 1) - lgamma(b + 1) - lgamma(a - b + 1)) / log(10)


def _ascending(parts):
    # a range with a positive step is already ascending and distinct, and
    # stays a range, read in O(1) whatever its length
    return parts if isinstance(parts, range) and parts.step > 0 else sorted(set(parts))


def _total(parts) -> int:
    if isinstance(parts, range):  # an arithmetic progression
        return len(parts) * (parts[0] + parts[-1]) // 2 if parts else 0
    return sum(parts)


def _compositions(n: int, m: int, parts) -> int:
    """Number of ordered m-tuples drawn from the ascending, distinct
    parts ``parts`` (a list, or a range, which is never listed) summing
    to n.

    With k0 the least part and J = n - m k0, this is [x^J] Q^m for
    Q = sum of x^(k - k0) over the parts, which J. C. P. Miller's
    recurrence for the powers of a power series gives in O(J |parts|)
    (Knuth, TAOCP vol. 2, 4.7): as Q(0) = 1, r_0 = 1 and
    j r_j = sum of ((m+1) i - j) r_(j-i) over the shifts i = k - k0 with
    1 <= i <= j.  The division by j is exact and asserted.  When every
    shift is a multiple of g, so is every exponent of Q: a J that g does
    not divide gives 0 before any refusal, and otherwise the recurrence
    runs on Q(x^(1/g)) up to J/g.  Only parts up to k0 + J
    matter, and their terms are counted in closed form, so a recurrence
    of over ``COMPOSITION_STEP_CAP`` terms, or of J/g iterations if more,
    is refused up front in time and memory that do not grow with n.
    """
    if m == 0 or not parts:
        return int(n == m == 0)
    low = parts[0]
    top = n - m * low
    if top < 0:
        return 0
    above = parts[1:bisect_right(parts, low + top)]  # the parts low + i, 1 <= i <= J
    # a progression's shifts share the gcd of its first two
    g = gcd(*(k - low for k in (above[:2] if isinstance(above, range) else above))) or 1
    if top % g:  # every exponent of Q^m is a multiple of g, and J is not
        return 0
    # shift i is summed for j = i..J, and the loop runs J/g times however
    # few terms it sums
    steps = max(len(above) * (top + 1 + low) - _total(above), top // g)
    if steps > COMPOSITION_STEP_CAP:
        raise ResourceLimitError(
            f"counting the {n + 2}-gon's dissections into {m} cells takes about "
            f"{steps} steps, over the cap of {COMPOSITION_STEP_CAP}"
        )
    top //= g
    shifts = [(k - low) // g for k in above]
    r = [1]
    live = 0  # the shifts up to j are shifts[:live]
    for j in range(1, top + 1):
        if live < len(shifts) and shifts[live] == j:
            live += 1
        value = sum(((m + 1) * i - j) * r[j - i] for i in shifts[:live])
        q, rem = divmod(value, j)
        if rem:
            raise AssertionError(f"composition recurrence at {j} is not integral: {value}/{j}")
        r.append(q)
    return r[top]


def dissection_count(n: int, m: int, parts) -> int:
    """Number of dissections of the (n+2)-gon into m cells whose sizes
    are drawn from {k + 2 : k in parts}.

    C(n+m, m)/(n+1) times the number of compositions of n into m parts
    from ``parts`` (the prescribed-cell-size count of Przytycki and
    Sikora); every closed form below is a special case.  Follows the
    2-gon convention D(0, 0) = 1 and D(0, m) = 0 for m > 0.  ``parts``
    is any iterable of positive integers; a range with a positive step
    is read without being listed.  Zero when no m parts can sum to n.
    Otherwise refuses up front a count that, if nonzero, has over
    ``COUNT_DIGIT_CAP`` digits, and a composition recurrence of over
    ``COMPOSITION_STEP_CAP`` terms.
    """
    _check_nonneg(n=n, m=m)
    parts = _ascending(parts)
    if parts and parts[0] < 1:
        raise DomainError("composition parts must be positive (cell sizes at least 3)")
    if m and (not parts or n < m * parts[0]):
        return 0  # m parts sum to at least m times the least
    # a nonzero count has at least the digits of C(n+m, m)/(n+1)
    digits = _log10_binomial(n + m, m) - log(n + 1, 10)
    if digits > COUNT_DIGIT_CAP:
        raise ResourceLimitError(
            f"the {n + 2}-gon's dissections into {m} cells number about 10^{digits:.0f} "
            f"if any, over the cap of {COUNT_DIGIT_CAP} digits"
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

    for 0 <= s <= (n-m)/3 (``_quiddity_sum``).  Follows the 2-gon
    convention at (0, 0).
    """
    _check_nonneg(n=n, m=m)
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0 or m > n or (n - m) % 3 != 0:
        return 0
    return _quiddity_sum(n, m, comb(n + m - 1, m - 1))


def _quiddity_sum(n: int, m: int, right: int) -> int:
    """The sum of ``quiddity_count_3periodic`` for 1 <= m <= n with
    n == m (mod 3), given its s = 0 binomial ``right`` = C(n+m-1, m-1).

    Individual terms need not be integers, so they are summed over the
    common denominator, the lcm of the n-s+1, and the division of the
    total by it is asserted exact.  From s to s+1 both binomials step by
    an exact small ratio, so the sum takes no ``comb``."""
    top = (n - m) // 3
    denominator = lcm(*range(n - top + 1, n + 2))
    left = 1  # C(m+s-2, s) at s = 0; C(-1, 0) = 1 when m = 1
    total = 0
    for s in range(top + 1):
        total += (n - m - 3 * s + 2) * (denominator // (n - s + 1)) * left * right
        left = left * (m + s - 1) // (s + 1)
        right = right * (n - s) // (n + m - s - 1)
    value, rem = divmod(total, denominator)
    if rem:
        raise AssertionError(
            f"quiddity count for ({n}, {m}) is not integral: {total}/{denominator}")
    return value


def quiddity_table(max_n: int) -> dict[tuple[int, int], int]:
    """``quiddity_count_3periodic`` at every entry of the table
    (``quiddity_table_diagonals``), by (n, m).  Along a diagonal, from
    (n, m) to (n+1, m+1), the s = 0 binomial C(n+m-1, m-1) steps exactly
    by (n+m)(n+m+1) / (m(n+1)), so the table takes no ``comb``."""
    table = {}
    for entries in quiddity_table_diagonals(max_n).values():
        right = 1  # C(n, 0) at a diagonal's first entry with m = 1
        for n, m in entries:
            if m == 0:  # the 2-gon
                table[n, m] = quiddity_count_3periodic(n, m)
                continue
            table[n, m] = _quiddity_sum(n, m, right)
            right = right * (n + m) * (n + m + 1) // (m * (n + 1))
    return table


def quiddity_table_diagonals(max_n: int) -> dict[int, list[tuple[int, int]]]:
    """The (n, m) entries of the 3-periodic quiddity table with
    n <= max_n, by diagonal: m = n - offset for offsets 0, 3, 6, 9, 12,
    keeping m >= 1 and the 2-gon entry (0, 0)."""
    return {
        offset: [(n, n - offset) for n in range(max_n + 1) if n - offset >= 1 or n == offset == 0]
        for offset in (0, 3, 6, 9, 12)
    }
