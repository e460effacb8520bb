"""Truncated bivariate formal power series over the integers, the
fixed-point solver for the dissection functional equations, and
Lagrange inversion.

A series is triangular: the coefficient of z^n w^m is stored for
0 <= m <= n <= order.  Every series arising from the dissection
equations satisfies m <= n (each cell contributes at least one z), so
the triangular table loses nothing.

Series are lazy, after McIlroy ("Power series, power serious", 1999):
arithmetic returns a node whose z^n row is computed from its operands'
rows when first read, then cached.  Row n of a product is the sum of
a_k b_(n-k) over each factor's nonzero (m, c) terms, so a product of
order K costs O(K^4) coefficient products in all, fewer when rows are
sparse, and a square a * a about half that, as it takes each pair of
rows (k, n-k) once; a shift by a monomial only moves rows.

A fixed point S = F(S) is a node whose row n is row n of F(S).  Every
equation has a factor z, so that row reads only rows of S below n;
the rows are read in increasing order, and each product in F(S) is
built once and extended a row at a time.  A solve to order K thus
makes O(K^4) coefficient products per product in F, not the O(K^6) of
re-evaluating F at every order.  An equation S = A + B/(1 - C) is
solved cleared of its denominator, S = A + B + C (S - A): one product,
where the geometric sum U = 1 + C U would need both C U and B U.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .core import DomainError
from .enumeration import CellFilter

Row = tuple[int, ...]


def _read_while_computed(n: int) -> Row:
    raise AssertionError(
        f"row {n} of a recursively defined series was read while it was being "
        "computed: the equation needs a factor z"
    )


class BivariateSeries:
    """Polynomial-in-w coefficients attached to powers of z, truncated
    at a fixed z order.  Immutable; arithmetic is exact.

    A series built from a table holds all its rows; one built by
    arithmetic computes row n from its operands' rows on first read,
    rows being filled in increasing order and cached.  Rows below
    ``_low`` are known to be zero without being read."""

    __slots__ = ("order", "_low", "_rows", "_terms", "_next")

    def __init__(self, order: int, coeffs: tuple[tuple[int, ...], ...]):
        if order < 0:
            raise DomainError(f"truncation order must be nonnegative, got {order}")
        if list(map(len, coeffs)) != list(range(1, order + 2)):
            raise DomainError("coefficient table must be triangular of the given order")
        self.order = order
        self._rows = list(map(tuple, coeffs))
        self._low = next((n for n, row in enumerate(self._rows) if any(row)), order + 1)
        # nonzero (m, c) terms of the rows read so far by a product
        self._terms: list[list[tuple[int, int]]] = []
        # computes row len(_rows); None once every row is cached
        self._next: Optional[Callable[[int], Row]] = None

    @classmethod
    def _lazy(cls, order: int, low: int, next_row: Callable[[int], Row]) -> "BivariateSeries":
        """The series whose row n is next_row(n), asked for in
        increasing n, and whose rows below ``low`` are zero."""
        s = cls.__new__(cls)
        s.order, s._low, s._rows, s._terms, s._next = order, low, [], [], next_row
        return s

    @classmethod
    def zero(cls, order: int) -> "BivariateSeries":
        return cls(order, tuple(tuple(0 for _ in range(n + 1)) for n in range(order + 1)))

    @classmethod
    def one(cls, order: int) -> "BivariateSeries":
        return cls.monomial(order, 0, 0)

    @classmethod
    def monomial(cls, order: int, n: int, m: int, coeff: int = 1) -> "BivariateSeries":
        """The series coeff * z^n w^m (zero if it exceeds the order)."""
        if not 0 <= m <= n:
            raise DomainError(f"monomial needs 0 <= m <= n, got z^{n} w^{m}")
        rows = [[0] * (k + 1) for k in range(order + 1)]
        if n <= order:
            rows[n][m] = coeff
        return cls(order, tuple(tuple(r) for r in rows))

    def _row(self, n: int) -> Row:
        rows = self._rows
        if n < len(rows):
            return rows[n]
        # while rows are being computed, reading an uncached one is a
        # cycle: it raises instead of recursing
        next_row, self._next = self._next, _read_while_computed
        try:
            while len(rows) <= n:
                rows.append(next_row(len(rows)))
        finally:
            # once complete, drop the operands
            self._next = next_row if len(rows) <= self.order else None
        return rows[n]

    def _terms_of(self, n: int) -> list[tuple[int, int]]:
        terms = self._terms
        while len(terms) <= n:
            terms.append([(m, c) for m, c in enumerate(self._row(len(terms))) if c])
        return terms[n]

    @property
    def coeffs(self) -> tuple[Row, ...]:
        self._row(self.order)
        return tuple(self._rows)

    def coefficient(self, n: int, m: int) -> int:
        if not 0 <= n <= self.order:
            raise DomainError(f"z-order {n} outside [0, {self.order}]")
        if not 0 <= m <= n:
            raise DomainError(f"w-order {m} outside [0, {n}]")
        return self._row(n)[m]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BivariateSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def _require_same_order(self, other: "BivariateSeries") -> None:
        if self.order != other.order:
            raise DomainError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._require_same_order(other)
        return BivariateSeries._lazy(
            self.order, min(self._low, other._low),
            lambda n: tuple(map(operator.add, self._row(n), other._row(n))))

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._require_same_order(other)
        return BivariateSeries._lazy(
            self.order, min(self._low, other._low),
            lambda n: tuple(map(operator.sub, self._row(n), other._row(n))))

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        """A square ``a * a`` takes each pair of rows k < n - k once,
        doubled, then the middle row's square: half the products."""
        self._require_same_order(other)
        terms1, terms2 = self._terms, other._terms
        low1, low2 = self._low, other._low
        square = other is self

        def row(n: int) -> Row:
            # pairs with a factor's row below its known zero rows are
            # skipped unread, and so is the second factor's row when the
            # first's is zero: a factor z keeps row n of a fixed point
            # from being read while it is computed
            out = [0] * (n + 1)
            for k in range(low1, (n + 1) // 2 if square else n - low2 + 1):
                row1 = terms1[k] if k < len(terms1) else self._terms_of(k)
                if not row1:
                    continue
                row2 = terms2[n - k] if n - k < len(terms2) else other._terms_of(n - k)
                for m1, c1 in row1:
                    for m2, c2 in row2:
                        out[m1 + m2] += c1 * c2
            if square:
                out = [c + c for c in out]
                if n % 2 == 0 and n // 2 >= low1:
                    for m1, c1 in (mid := self._terms_of(n // 2)):
                        for m2, c2 in mid:
                            out[m1 + m2] += c1 * c2
            return tuple(out)

        return BivariateSeries._lazy(self.order, low1 + low2, row)

    def __pow__(self, exponent: int) -> "BivariateSeries":
        """By repeated squaring, so a power is O(log exponent) product
        nodes deep, and each square takes each pair of rows once."""
        if exponent < 0:
            raise DomainError("negative series powers are not defined here")
        result, square = None, self
        while exponent:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return BivariateSeries.one(self.order) if result is None else result

    def shift(self, dz: int, dw: int) -> "BivariateSeries":
        """Multiply by z^dz w^dw: row n moves to row n + dz, each of its
        coefficients dw places to the right."""
        if not 0 <= dw <= dz:
            raise DomainError(f"monomial needs 0 <= m <= n, got z^{dz} w^{dw}")
        if dz > self.order:
            return BivariateSeries.zero(self.order)
        left, right = (0,) * dw, (0,) * (dz - dw)
        return BivariateSeries._lazy(
            self.order, self._low + dz,
            lambda n: left + self._row(n - dz) + right if n >= dz else (0,) * (n + 1))

    def nonzero_terms(self) -> list[tuple[int, int, int]]:
        return [
            (n, m, c)
            for n, row in enumerate(self.coeffs)
            for m, c in enumerate(row)
            if c
        ]


def _recursive(order: int, f: Callable[[BivariateSeries], BivariateSeries]) -> BivariateSeries:
    """The series U = f(U), as the node whose row n is row n of f(U).

    That is well defined when row n of f(U) reads only rows of U below
    n, as a factor z ensures; reading U's row n while computing it, or
    any row of U while f builds its image, raises AssertionError."""
    u = BivariateSeries._lazy(order, 0, _read_while_computed)
    image = f(u)
    u._require_same_order(image)
    u._next = image._row
    return u


def geometric_sum(s: BivariateSeries) -> BivariateSeries:
    """1 + s + s^2 + ... truncated, as U = 1 + s U; requires s to have
    no constant term, which makes the sum finite at the truncation
    order and row n of s U read only rows of U below n."""
    if s.coefficient(0, 0) != 0:
        raise DomainError("geometric expansion needs a series with zero constant term")
    one = BivariateSeries.one(s.order)
    return _recursive(s.order, lambda u: one + s * u)


@dataclass(frozen=True)
class EquationSpec:
    """A named functional equation S = F(S) for a dissection-counting
    series, with F mapping series to series at a fixed order."""

    name: str
    apply: Callable[[BivariateSeries], BivariateSeries]


def catalan_equation() -> EquationSpec:
    def f(s: BivariateSeries) -> BivariateSeries:
        one = BivariateSeries.one(s.order)
        return one + (s * s).shift(1, 0)

    return EquationSpec("catalan", f)


def cell_filter_equation(cell_filter: CellFilter) -> EquationSpec:
    """S = 1 + w z S^2 * sum over allowed cell sizes t of (zS)^(t-3):
    the z^n w^m coefficient counts dissections of the (n+2)-gon into m
    cells whose sizes pass the filter.

    For all cells, and for the sizes 3 mod ell, t - 3 runs over the
    multiples of ell, so the sum is 1/(1 - z^ell S^ell); cleared of it
    the equation is S = 1 + w z S^2 + z^ell S^ell (S - 1), whose last
    term starts at z^(ell+1) and is not built when ell reaches the
    order.  A finite size set sums w z^(t-2) S^(t-1), each power the
    last times powers of S^2 and S for the gap."""
    def f(s: BivariateSeries) -> BivariateSeries:
        one, ss = BivariateSeries.one(s.order), s * s
        if cell_filter.kind == "sizes":
            image, power, j = one, ss, 2
            for t in cell_filter.allowed_sizes_upto(s.order + 2):
                if t - 1 - j > 1:
                    power = power * ss ** ((t - 1 - j) // 2)
                if (t - 1 - j) % 2:
                    power = power * s
                image, j = image + power.shift(t - 2, 1), t - 1
            return image
        image = one + ss.shift(1, 1)
        ell = cell_filter.ell or 1
        if ell < s.order:
            # S^ell (S - 1): (S^2)^(ell // 2) times S - 1, or times S^2 - S for odd ell
            tail = s - one if ell % 2 == 0 else ss - s
            if ell > 1:
                tail = ss ** (ell // 2) * tail
            image = image + tail.shift(ell, 0)
        return image

    return EquationSpec(f"cells({cell_filter.describe()})", f)


def kirkman_cayley_equation() -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z S), solved as S = 1 + w z S^2 + z S (S - 1)
    return EquationSpec("kirkman-cayley", cell_filter_equation(CellFilter.all_cells()).apply)


def ell_periodic_equation(ell: int) -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z^ell S^ell), solved as
    # S = 1 + w z S^2 + z^ell S^ell (S - 1)
    return EquationSpec(f"ell-periodic({ell})", cell_filter_equation(CellFilter.ell_periodic(ell)).apply)


def tri_quad_equation() -> EquationSpec:
    # S = 1 + w z S^2 + w z^2 S^3
    return EquationSpec("tri-quad", cell_filter_equation(CellFilter.size_set({3, 4})).apply)


def p_equation() -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z^3 S^2), solved as
    # S = 1 + w z S^2 + z^3 S^2 (S - 1)
    def f(s: BivariateSeries) -> BivariateSeries:
        one, ss = BivariateSeries.one(s.order), s * s
        return one + ss.shift(1, 1) + (ss * (s - one)).shift(3, 0)

    return EquationSpec("p", f)


def solve_fixed_point(spec: EquationSpec, max_z_order: int) -> BivariateSeries:
    """The unique series satisfying S = F(S) up to the truncation order,
    solved row by row.

    Every equation has a factor z, so row n of F(S) reads only rows of
    S below n: S is the node whose row n is row n of F(S), and F is
    applied once.  Every row is computed here, so an equation without
    that factor raises AssertionError from this call.  S = F(S) holds
    by construction, so only the closed forms of
    ``verification.check_series`` can catch a wrong equation.
    """
    if max_z_order < 0:
        raise DomainError(f"truncation order must be nonnegative, got {max_z_order}")
    s = _recursive(max_z_order, spec.apply)
    s._row(max_z_order)
    return s


def compose_q(p: BivariateSeries) -> BivariateSeries:
    """Quiddity-counting series from the auxiliary fixed point P:
    Q = 1 + w z P^2 / (1 - z^3 P^3), solved in cleared form.

    ``p`` must solve the auxiliary equation at its own truncation
    order; anything else is rejected.  Unlike a solver's residual,
    this check of a caller's series can fail.

    Public library API, kept and tested: nothing in the package calls
    it, since ``solve_named`` composes Q (``_compose_q``) from a P that
    ``solve_fixed_point`` has just solved.
    """
    if p_equation().apply(p) != p:
        raise DomainError("input series does not solve the auxiliary equation")
    return _compose_q(p)


def _compose_q(p: BivariateSeries) -> BivariateSeries:
    # Q from a P that solves the auxiliary equation, as the fixed point
    # Q = 1 + w z P^2 + z^3 P^3 (Q - 1)
    one, pp = BivariateSeries.one(p.order), p * p
    ppp = pp * p
    return _recursive(p.order, lambda q: one + pp.shift(1, 1) + (ppp * (q - one)).shift(3, 0))


def lagrange_invert(phi: BivariateSeries, n: int) -> tuple[int, ...]:
    """Coefficient of z^n in the series y(z) inverting y -> y/phi(y),
    as a dense polynomial in w (index = w degree).

    Uses n [z^n] y = [y^{n-1}] phi^n; the division by n must be exact
    on every coefficient and is asserted.
    """
    if n < 1:
        raise DomainError(f"inversion index must be at least 1, got {n}")
    if phi.coefficient(0, 0) == 0:
        raise DomainError("phi must have a nonzero constant term")
    if phi.order < n - 1:
        raise DomainError(
            f"phi is truncated at order {phi.order}, need at least {n - 1}"
        )
    row = (phi ** n)._row(n - 1)
    out = []
    for m, value in enumerate(row):
        q, r = divmod(value, n)
        if r:
            raise AssertionError(
                f"inversion coefficient z^{n} w^{m} is not integral: {value}/{n}"
            )
        out.append(q)
    return tuple(out)


def series_terms_json(s: BivariateSeries) -> list[dict[str, object]]:
    """Nonzero terms in the dump format: {n, m, coeff-as-string}."""
    return [
        {"n": n, "m": m, "coeff": str(c)}
        for n, m, c in s.nonzero_terms()
    ]


NAMED_EQUATIONS: dict[str, Callable[..., EquationSpec]] = {
    "catalan": catalan_equation,
    "kirkman-cayley": kirkman_cayley_equation,
    "ell-periodic": ell_periodic_equation,
    "tri-quad": tri_quad_equation,
    "p": p_equation,
}


def solve_named(name: str, max_z_order: int, ell: Optional[int] = None) -> BivariateSeries:
    """Solve one of the named equations; ``q`` composes the quiddity
    series from the auxiliary solution."""
    if name == "q":
        # a P solved here needs none of compose_q's check of a caller's P
        return _compose_q(solve_fixed_point(p_equation(), max_z_order))
    if name not in NAMED_EQUATIONS:
        raise DomainError(f"unknown equation {name!r}")
    if name == "ell-periodic":
        if ell is None:
            raise DomainError("ell-periodic equation needs a period")
        return solve_fixed_point(ell_periodic_equation(ell), max_z_order)
    return solve_fixed_point(NAMED_EQUATIONS[name](), max_z_order)
