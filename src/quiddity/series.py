"""Truncated bivariate formal power series over the integers, the
fixed-point solver for the dissection functional equations, and
Lagrange inversion.

A series is triangular: the coefficient of z^n w^m is stored for
0 <= m <= n <= order.  Every series arising from the dissection
equations satisfies m <= n (each cell contributes at least one z), so
the triangular table loses nothing.  Rational sub-expressions such as
1/(1 - zS) are expanded as geometric series up to the truncation
order; no exact division of series is ever needed.

A product of two series of order K costs O(K^4) coefficient products
when dense, fewer when rows are sparse: each factor's nonzero terms are
listed once per product, and a shift by a monomial only moves rows.
The solver grows its truncation with the iteration count: iteration k
runs at order k, since it can fix only the z^k row.  One evaluation of
an equation makes O(K) products, so a solve to order K makes O(K^6)
coefficient products, about a sixth of what running all K iterations
at the full order makes (the sum of k^5 over k <= K against K * K^5);
``series kirkman-cayley --order 40`` takes about 1.2 s on a 2-core
machine.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .core import DomainError
from .enumeration import CellFilter


class BivariateSeries:
    """Polynomial-in-w coefficients attached to powers of z, truncated
    at a fixed z order.  Immutable; arithmetic is exact."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[tuple[int, ...], ...]):
        if order < 0:
            raise DomainError(f"truncation order must be nonnegative, got {order}")
        if list(map(len, coeffs)) != list(range(1, order + 2)):
            raise DomainError("coefficient table must be triangular of the given order")
        self.order = order
        self.coeffs = coeffs

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

    def coefficient(self, n: int, m: int) -> int:
        if not 0 <= n <= self.order:
            raise DomainError(f"z-order {n} outside [0, {self.order}]")
        if not 0 <= m <= n:
            raise DomainError(f"w-order {m} outside [0, {n}]")
        return self.coeffs[n][m]

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
        return BivariateSeries(
            self.order,
            tuple(tuple(map(operator.add, ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._require_same_order(other)
        return BivariateSeries(
            self.order,
            tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other: "BivariateSeries") -> "BivariateSeries":
        self._require_same_order(other)
        order = self.order
        # each factor's nonzero (m, c) terms per row, listed once
        terms1 = [[(m, c) for m, c in enumerate(row) if c] for row in self.coeffs]
        terms2 = [[(m, c) for m, c in enumerate(row) if c] for row in other.coeffs]
        rows = [[0] * (n + 1) for n in range(order + 1)]
        for n1, row1 in enumerate(terms1):
            if not row1:
                continue
            for n, row2 in enumerate(terms2[:order - n1 + 1], n1):
                out = rows[n]
                for m1, c1 in row1:
                    for m2, c2 in row2:
                        out[m1 + m2] += c1 * c2
        return BivariateSeries(order, tuple(map(tuple, rows)))

    def scale(self, factor: int) -> "BivariateSeries":
        return BivariateSeries(
            self.order,
            tuple(tuple(factor * c for c in row) for row in self.coeffs),
        )

    def __pow__(self, exponent: int) -> "BivariateSeries":
        if exponent < 0:
            raise DomainError("negative series powers are not defined here")
        result = BivariateSeries.one(self.order)
        for _ in range(exponent):
            result = result * self
        return result

    def shift(self, dz: int, dw: int) -> "BivariateSeries":
        """Multiply by z^dz w^dw: row n moves to row n + dz, each of its
        coefficients dw places to the right."""
        if not 0 <= dw <= dz:
            raise DomainError(f"monomial needs 0 <= m <= n, got z^{dz} w^{dw}")
        kept = max(self.order + 1 - dz, 0)
        low = tuple((0,) * (n + 1) for n in range(self.order + 1 - kept))
        left, right = (0,) * dw, (0,) * (dz - dw)
        return BivariateSeries(self.order, low + tuple(left + row + right for row in self.coeffs[:kept]))

    def with_order(self, order: int) -> "BivariateSeries":
        """The same coefficients truncated, or padded with zero rows, to
        another z order."""
        pad = tuple((0,) * (n + 1) for n in range(self.order + 1, order + 1))
        return BivariateSeries(order, self.coeffs[:order + 1] + pad)

    def nonzero_terms(self) -> list[tuple[int, int, int]]:
        return [
            (n, m, c)
            for n, row in enumerate(self.coeffs)
            for m, c in enumerate(row)
            if c
        ]


def geometric_sum(s: BivariateSeries) -> BivariateSeries:
    """1 + s + s^2 + ... truncated; requires s to have no constant
    term, which makes the sum finite at the truncation order."""
    if s.coeffs[0][0] != 0:
        raise DomainError("geometric expansion needs a series with zero constant term")
    total = BivariateSeries.one(s.order)
    power = BivariateSeries.one(s.order)
    for _ in range(s.order):
        power = power * s
        total = total + power
    return total


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
    cells whose sizes pass the filter."""
    # Powers of zS are built one at a time: their low rows are zero, so
    # the products stay cheap, unlike the dense powers of S itself.
    def f(s: BivariateSeries) -> BivariateSeries:
        one = BivariateSeries.one(s.order)
        zs = s.shift(1, 0)
        exponents = [t - 3 for t in cell_filter.allowed_sizes_upto(s.order + 2)]
        total = BivariateSeries.zero(s.order)
        power, j = one, 0
        for e in exponents:
            while j < e:
                power, j = power * zs, j + 1
            total = total + power
        return one + (s * s).shift(1, 1) * total

    return EquationSpec(f"cells({cell_filter.describe()})", f)


def kirkman_cayley_equation() -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z S)
    return EquationSpec("kirkman-cayley", cell_filter_equation(CellFilter.all_cells()).apply)


def ell_periodic_equation(ell: int) -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z^ell S^ell)
    return EquationSpec(f"ell-periodic({ell})", cell_filter_equation(CellFilter.ell_periodic(ell)).apply)


def tri_quad_equation() -> EquationSpec:
    # S = 1 + w z S^2 + w z^2 S^3
    return EquationSpec("tri-quad", cell_filter_equation(CellFilter.size_set({3, 4})).apply)


def p_equation() -> EquationSpec:
    # S = 1 + w z S^2 / (1 - z^3 S^2)
    def f(s: BivariateSeries) -> BivariateSeries:
        one = BivariateSeries.one(s.order)
        return one + (s * s).shift(1, 1) * geometric_sum((s * s).shift(3, 0))

    return EquationSpec("p", f)


def solve_fixed_point(spec: EquationSpec, max_z_order: int) -> BivariateSeries:
    """The unique series with constant term 1 satisfying S = F(S) up to
    the truncation order, by iterating S <- F(S) from S = 1.

    Every equation has a factor z, so if S is right below z^k, F(S) is
    right below z^(k+1).  Iteration k therefore pads S with a zero
    z^k row and applies F at order k, fixing that row; the k-th
    iteration costs what one at order k does, not one at the full
    order.  The fixed point is then re-checked at the full order, and
    any residual signals a bug in the equation definition.
    """
    if max_z_order < 0:
        raise DomainError(f"truncation order must be nonnegative, got {max_z_order}")
    s = BivariateSeries.one(0)
    for k in range(1, max_z_order + 1):
        s = spec.apply(s.with_order(k))
    if spec.apply(s) != s:
        raise AssertionError(f"iteration of {spec.name} failed to reach a fixed point")
    return s


def compose_q(p: BivariateSeries) -> BivariateSeries:
    """Quiddity-counting series from the auxiliary fixed point P:
    Q = 1 + w z P^2 / (1 - z^3 P^3), expanded geometrically.

    ``p`` must solve the auxiliary equation at its own truncation
    order; anything else is rejected.
    """
    if p_equation().apply(p) != p:
        raise DomainError("input series does not solve the auxiliary equation")
    one = BivariateSeries.one(p.order)
    return one + (p * p).shift(1, 1) * geometric_sum((p ** 3).shift(3, 0))


def lagrange_invert(phi: BivariateSeries, n: int) -> tuple[int, ...]:
    """Coefficient of z^n in the series y(z) inverting y -> y/phi(y),
    as a dense polynomial in w (index = w degree).

    Uses n [z^n] y = [y^{n-1}] phi^n; the division by n must be exact
    on every coefficient and is asserted.
    """
    if n < 1:
        raise DomainError(f"inversion index must be at least 1, got {n}")
    if phi.coeffs[0][0] == 0:
        raise DomainError("phi must have a nonzero constant term")
    if phi.order < n - 1:
        raise DomainError(
            f"phi is truncated at order {phi.order}, need at least {n - 1}"
        )
    power = phi ** n
    row = power.coeffs[n - 1]
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
        return compose_q(solve_fixed_point(p_equation(), max_z_order))
    if name not in NAMED_EQUATIONS:
        raise DomainError(f"unknown equation {name!r}")
    if name == "ell-periodic":
        if ell is None:
            raise DomainError("ell-periodic equation needs a period")
        return solve_fixed_point(ell_periodic_equation(ell), max_z_order)
    return solve_fixed_point(NAMED_EQUATIONS[name](), max_z_order)
