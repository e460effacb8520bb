"""Truncated series arithmetic, fixed-point solutions, Lagrange inversion."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from quiddity import DomainError, formulas, series
from quiddity.enumeration import CellFilter, count_dissections
from quiddity.series import (
    BivariateSeries,
    catalan_equation,
    cell_filter_equation,
    compose_q,
    geometric_sum,
    lagrange_invert,
    NAMED_EQUATIONS,
    p_equation,
    solve_fixed_point,
    solve_named,
    series_terms_json,
)
from quiddity.verification import dissection_inversion_series, known_quiddity_table

from oracles import shifts_by_monomial_products, solve_at_full_order


def closed_form_with_empty_row(f, n, m):
    if m == 0:
        return 1 if n == 0 else 0
    return f(n, m)


def test_catalan_series():
    s = solve_fixed_point(catalan_equation, 12)
    assert s.coefficient(5, 0) == 42
    assert s.coefficient(6, 0) == 132
    for n in range(13):
        assert s.coefficient(n, 0) == formulas.catalan(n)


def test_kirkman_cayley_series():
    s = solve_fixed_point(NAMED_EQUATIONS["kirkman-cayley"](None), 12)
    assert s.coefficient(4, 2) == 9
    assert s.coefficient(9, 9) == 4862
    for n in range(13):
        for m in range(n + 1):
            assert s.coefficient(n, m) == \
                closed_form_with_empty_row(formulas.kirkman_cayley, n, m)


def test_ell_periodic_series():
    for ell in (2, 3):
        s = solve_fixed_point(NAMED_EQUATIONS["ell-periodic"](ell), 12)
        for n in range(13):
            for m in range(n + 1):
                want = closed_form_with_empty_row(
                    lambda nn, mm: formulas.ell_periodic_count(nn, mm, ell), n, m)
                assert s.coefficient(n, m) == want


def test_tri_quad_series():
    s = solve_fixed_point(NAMED_EQUATIONS["tri-quad"](None), 12)
    for n in range(13):
        for m in range(n + 1):
            assert s.coefficient(n, m) == \
                closed_form_with_empty_row(formulas.tri_quad_count, n, m)


def test_cell_filter_series_without_closed_form():
    filt = CellFilter.size_set({3, 5})
    s = solve_fixed_point(cell_filter_equation(filt), 12)
    for n in range(13):
        for m in range(n + 1):
            want = count_dissections(n + 2, m, filt) if m else int(n == 0)
            assert s.coefficient(n, m) == want, (n, m)


def test_auxiliary_series_low_orders():
    p = solve_fixed_point(p_equation, 3)
    assert p.coefficient(0, 0) == 1
    assert p.coefficient(1, 1) == 1
    assert p.coefficient(2, 2) == 2


def test_quiddity_series_composition():
    p = solve_fixed_point(p_equation, 12)
    q = compose_q(p)
    assert q.coefficient(0, 0) == 1
    assert q.coefficient(6, 3) == 34
    for n in range(13):
        for m in range(n + 1):
            assert q.coefficient(n, m) == \
                closed_form_with_empty_row(formulas.quiddity_count_3periodic, n, m)
            if (n - m) % 3:
                assert q.coefficient(n, m) == 0


def test_compose_rejects_non_solutions():
    with pytest.raises(DomainError):
        compose_q(BivariateSeries.one(6))


def test_residual_vanishes():
    for name, ell in (("catalan", None), ("kirkman-cayley", None), ("ell-periodic", 3),
                      ("tri-quad", None), ("p", None)):
        equation = NAMED_EQUATIONS[name](ell)
        s = solve_fixed_point(equation, 9)
        assert equation(s) == s
        # the defining map sends constant-term-1 series to 1 + higher order
        image = equation(BivariateSeries.one(9))
        assert image.coefficient(0, 0) == 1


def test_solve_applies_the_equation_once_and_computes_every_row():
    applied = []
    equation = NAMED_EQUATIONS["kirkman-cayley"](None)
    s = solve_fixed_point(lambda s: applied.append(1) or equation(s), 12)
    assert len(applied) == 1
    assert s._next is None  # every row computed, its operands dropped
    assert s == solve_at_full_order(equation, 12)


NAMED = [("catalan", None), ("kirkman-cayley", None), ("tri-quad", None), ("p", None),
         ("q", None), *(("ell-periodic", ell) for ell in (1, 2, 3, 4))]


@pytest.mark.parametrize("name, ell", NAMED)
def test_named_solutions_match_full_order_iteration(name, ell):
    for order in range(17):
        if name == "q":
            with shifts_by_monomial_products():
                want = compose_q(solve_at_full_order(p_equation, order))
        else:
            want = solve_at_full_order(NAMED_EQUATIONS[name](ell), order)
        assert solve_named(name, order, ell) == want, order


@pytest.mark.parametrize("name", ["catalan", "kirkman-cayley", "tri-quad", "p", "q"])
def test_only_the_ell_periodic_equation_takes_a_period(name):
    with pytest.raises(DomainError, match=f"equation {name!r} takes no period, got ell=2"):
        solve_named(name, 5, 2)
    with pytest.raises(DomainError, match="unknown equation 'hexagonal'"):
        solve_named("hexagonal", 5, 2)


@pytest.mark.parametrize("name, ell, cell_filter", [
    ("kirkman-cayley", None, CellFilter.all_cells()), ("tri-quad", None, CellFilter.size_set({3, 4})),
    *(("ell-periodic", ell, CellFilter.ell_periodic(ell)) for ell in (1, 2, 3, 4))],
    ids=lambda v: v.describe() if isinstance(v, CellFilter) else None)
def test_named_series_count_what_their_filter_allows(name, ell, cell_filter):
    # the series and the composition count read the same filter
    s = solve_named(name, 16, ell)
    for n in range(17):
        for m in range(1, n + 1):
            assert s.coefficient(n, m) == count_dissections(n + 2, m, cell_filter), (n, m)


@pytest.mark.parametrize("sizes", [{3, 5}, {4, 7}])
def test_cell_filter_solutions_match_full_order_iteration(sizes):
    equation = cell_filter_equation(CellFilter.size_set(sizes))
    for order in range(17):
        assert solve_fixed_point(equation, order) == solve_at_full_order(equation, order), order


def power_sum_filter_equation(cell_filter):
    """The filter equation as its definition writes it: the sum of
    (zS)^(t-3) over every allowed size t up to the order, each power one
    product from the last."""
    def f(s):
        one = BivariateSeries.one(s.order)
        zs = s.shift(1, 0)
        total = BivariateSeries.zero(s.order)
        power, j = one, 0
        for t in cell_filter.allowed_sizes_upto(s.order + 2):
            while j < t - 3:
                power, j = power * zs, j + 1
            total = total + power
        return one + (s * s).shift(1, 1) * total

    return f


@pytest.mark.parametrize("cell_filter", [
    # a period past every order allows triangles only
    CellFilter.all_cells(), *(CellFilter.ell_periodic(ell) for ell in (1, 2, 3, 4, 5, 8, 10 ** 30)),
    *(CellFilter.size_set(sizes) for sizes in ({3}, {4}, {3, 4}, {5, 7}))],
    ids=lambda f: f.describe())
def test_filter_equation_matches_its_power_sum_form(cell_filter):
    equation, definition = cell_filter_equation(cell_filter), power_sum_filter_equation(cell_filter)
    for order in range(21):
        assert solve_fixed_point(equation, order) == solve_fixed_point(definition, order), order


def geometric_p_equation(p):
    """P = 1 + w z P^2 / (1 - z^3 P^2) as the paper writes it, the
    fraction expanded as a geometric sum."""
    pp = p * p
    return BivariateSeries.one(p.order) + pp.shift(1, 1) * geometric_sum(pp.shift(3, 0))


def geometric_q(p):
    """Q = 1 + w z P^2 / (1 - z^3 P^3) as the paper writes it."""
    pp = p * p
    return BivariateSeries.one(p.order) + pp.shift(1, 1) * geometric_sum((pp * p).shift(3, 0))


def test_p_and_q_match_their_geometric_definitions():
    for order in range(21):
        p = solve_fixed_point(geometric_p_equation, order)
        assert solve_named("p", order) == p, order
        assert solve_named("q", order) == geometric_q(p), order


@pytest.fixture
def products(monkeypatch):
    """The number of series products built since the fixture was set up."""
    built = []
    multiply = BivariateSeries.__mul__
    monkeypatch.setattr(BivariateSeries, "__mul__", lambda a, b: built.append(1) or multiply(a, b))
    return built


FEW_PRODUCTS = [
    ("catalan", None, 1), ("kirkman-cayley", None, 1), ("ell-periodic", 2, 2),
    ("ell-periodic", 3, 3), ("ell-periodic", 4, 3), ("p", None, 2),
    # a period past the order leaves S^2 alone
    ("ell-periodic", 10, 1), ("ell-periodic", 10 ** 30, 1)]


@pytest.mark.parametrize("name, ell, most", FEW_PRODUCTS, ids=[
    f"{name}({ell})-{most}" if ell else f"{name}-{most}" for name, ell, most in FEW_PRODUCTS])
def test_each_equation_builds_few_products(products, name, ell, most):
    # each rational equation is solved cleared of its denominator: a
    # geometric sum would cost a product for itself and one for its use
    NAMED_EQUATIONS[name](ell)(BivariateSeries.one(9))
    assert len(products) <= most


def test_quiddity_series_builds_three_products(products):
    p = solve_fixed_point(p_equation, 9)
    products.clear()
    series._compose_q(p)
    assert len(products) == 3


def test_equation_without_a_factor_z_is_refused_cleanly():
    # S = 1 + S^2 reads row n of S to compute row n; the second equation
    # reads row 0 of S while it is still being defined
    unguarded = {
        "no-z": lambda s: BivariateSeries.one(s.order) + s * s,
        "identity": lambda s: s,
        "eager": lambda s: BivariateSeries.one(s.order) + geometric_sum(s * s),
    }
    for name, equation in unguarded.items():
        for order in (0, 5, 60):
            start = time.perf_counter()
            with pytest.raises(AssertionError):
                solve_fixed_point(equation, order)
            assert time.perf_counter() - start < 1.0, (name, order)


def test_solution_may_stand_on_either_side_of_a_product():
    # S = 1 + S (zS) is the Catalan equation with S as the left factor:
    # row n of the product must not read row n of S through the zero
    # constant row of zS
    def f(s):
        return BivariateSeries.one(s.order) + s * s.shift(1, 0)

    for order in range(13):
        assert solve_fixed_point(f, order) == solve_fixed_point(catalan_equation, order), order


def signed_series(order, seed):
    """A series with negative coefficients, zero rows among its others,
    and two leading zero rows through a shift, as a lazy node."""
    rng = random.Random(seed)
    rows = [tuple(rng.choice((0, 0, -3, -1, 1, 2, 7)) if rng.random() < 0.7 else 0
                  for _ in range(n + 1)) for n in range(order + 1)]
    return BivariateSeries(order, tuple(rows)).shift(2, 1)


def copy_of(s):
    """A distinct series with the same rows, so products with it take
    the general path and not the square's."""
    return BivariateSeries(s.order, s.coeffs)


@pytest.mark.parametrize("order", range(21))
def test_square_matches_the_general_product(order):
    for seed in range(3):
        s = signed_series(order, seed)
        square = s * s
        t = copy_of(s)
        assert square == s * t == dense_product(t, t)
        # a square of rows that start at row 0
        u = BivariateSeries.one(order) - t
        assert u * u == u * copy_of(u)


@pytest.mark.parametrize("order", [0, 1, 5, 12])
def test_powers_match_repeated_general_products(order):
    shifted = signed_series(order, order)
    for s in (shifted, shifted + BivariateSeries.monomial(order, 0, 0, -2)):
        t, want = copy_of(s), BivariateSeries.one(order)
        for k in range(10):
            assert s ** k == want, k
            want = want * t


def test_square_without_a_factor_z_reads_its_middle_row_while_computed():
    # at n = 0 the square's only pair is its middle row, row 0 of u
    for order in (0, 1, 5):
        one = BivariateSeries.one(order)
        u = series._recursive(order, lambda u: one + u * u)
        with pytest.raises(AssertionError, match="read while it was being computed"):
            u.coeffs


def test_high_powers_and_inversion_do_not_recurse_deeply():
    # the Catalan kernel 1/(1-y): its rows are sparse, so order 80 is cheap
    phi = geometric_sum(BivariateSeries.monomial(80, 1, 0))
    power = phi ** 80
    # [y^79] (1-y)^-80 = C(158, 79) = 80 * Catalan(79)
    assert power.coefficient(79, 0) == 80 * formulas.catalan(79)
    assert lagrange_invert(phi, 80)[0] == formulas.catalan(79)


def test_solver_refuses_negative_order():
    with pytest.raises(DomainError):
        solve_fixed_point(catalan_equation, -1)


def test_coefficient_bounds_checked():
    s = solve_fixed_point(catalan_equation, 5)
    with pytest.raises(DomainError):
        s.coefficient(6, 0)
    with pytest.raises(DomainError):
        s.coefficient(3, 4)


def test_geometric_sum_needs_zero_constant_term():
    with pytest.raises(DomainError):
        geometric_sum(BivariateSeries.one(4))


def test_geometric_sum_of_a_cancelled_constant_term():
    # the constant rows cancel only when computed, so the recursion
    # U = 1 + s U must see row 0 of s is zero before reading row n of U
    y = BivariateSeries.monomial(10, 1, 0)
    one = BivariateSeries.one(10)
    assert geometric_sum(one - one + y) == geometric_sum(y)
    assert [geometric_sum(y).coefficient(n, 0) for n in range(11)] == [1] * 11


def test_lagrange_reproduces_dissection_counts():
    phi = dissection_inversion_series(12)
    for n in range(1, 13):
        poly = lagrange_invert(phi, n)
        assert list(poly) == [formulas.kirkman_cayley(n - 1, m) for m in range(n)]
    assert lagrange_invert(phi, 5)[2] == 9


def test_lagrange_catalan_kernel():
    # phi = 1/(1-y) inverts y = z * (Catalan series), so the nth
    # coefficient is the (n-1)st Catalan number
    phi = geometric_sum(BivariateSeries.monomial(12, 1, 0))
    for n in range(1, 13):
        assert lagrange_invert(phi, n)[0] == formulas.catalan(n - 1)
    assert lagrange_invert(phi, 3)[0] == 2


def test_lagrange_even_tree_kernel():
    # phi = 1 + y^2 inverts y = z(1 + y^2): odd coefficients are the
    # Catalan numbers, even ones vanish
    phi = BivariateSeries.one(12) + BivariateSeries.monomial(12, 2, 0)
    for n in range(1, 13):
        value = lagrange_invert(phi, n)[0]
        assert value == (formulas.catalan((n - 1) // 2) if n % 2 else 0)
    assert lagrange_invert(phi, 5)[0] == 2


def test_lagrange_identity_kernel():
    phi = BivariateSeries.one(8)
    assert lagrange_invert(phi, 1)[0] == 1
    for n in range(2, 9):
        assert all(c == 0 for c in lagrange_invert(phi, n))


def test_lagrange_rejects_zero_constant_term():
    with pytest.raises(DomainError):
        lagrange_invert(BivariateSeries.monomial(6, 1, 0), 3)
    with pytest.raises(DomainError):
        lagrange_invert(BivariateSeries.one(3), 9)


def test_series_dump_format():
    s = solve_fixed_point(catalan_equation, 3)
    assert series_terms_json(s) == [
        {"n": 0, "m": 0, "coeff": "1"},
        {"n": 1, "m": 0, "coeff": "1"},
        {"n": 2, "m": 0, "coeff": "2"},
        {"n": 3, "m": 0, "coeff": "5"},
    ]


def test_solve_named_quiddity_route():
    q = solve_named("q", 10)
    for (n, m), want in known_quiddity_table(10).items():
        assert q.coefficient(n, m) == want


def test_solve_named_q_builds_the_p_equation_once(monkeypatch):
    # Q is composed from the P that solve_fixed_point solved, which
    # satisfies the auxiliary equation by construction: the equation is
    # not built again to check it
    built = []
    monkeypatch.setattr(series, "p_equation", lambda s: built.append(1) or p_equation(s))
    q = solve_named("q", 8)
    assert len(built) == 1
    assert q == compose_q(solve_fixed_point(p_equation, 8))


small_series = st.builds(
    lambda rows: BivariateSeries(
        3, tuple(tuple(rows[n][: n + 1]) for n in range(4))
    ),
    st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
             min_size=4, max_size=4),
)


@settings(max_examples=60)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * BivariateSeries.one(3) == a
    assert a - a == BivariateSeries.zero(3)


def series_at(order):
    """Triangular series of the given order with small signed coefficients."""
    return st.builds(
        lambda rows: BivariateSeries(order, tuple(map(tuple, rows))),
        st.tuples(*(st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)
                    for n in range(order + 1))))


def series_of_order(max_order):
    """Triangular series of order 0..max_order with small signed coefficients."""
    return st.integers(0, max_order).flatmap(series_at)


def dense_product(a, b):
    """The product by the schoolbook loop over every pair of terms."""
    rows = [[0] * (n + 1) for n in range(a.order + 1)]
    for n1 in range(a.order + 1):
        for m1 in range(n1 + 1):
            for n2 in range(a.order - n1 + 1):
                for m2 in range(n2 + 1):
                    rows[n1 + n2][m1 + m2] += a.coeffs[n1][m1] * b.coeffs[n2][m2]
    return BivariateSeries(a.order, tuple(map(tuple, rows)))


@settings(max_examples=100)
@given(series_of_order(5), st.data())
def test_shift_is_a_monomial_product(s, data):
    dz = data.draw(st.integers(0, s.order + 2))
    dw = data.draw(st.integers(0, dz))
    assert s.shift(dz, dw) == s * BivariateSeries.monomial(s.order, dz, dw)


def test_shift_needs_a_monomial():
    s = BivariateSeries.one(4)
    for dz, dw in ((1, 2), (-1, 0), (0, -1)):
        with pytest.raises(DomainError):
            s.shift(dz, dw)


@settings(max_examples=100)
@given(series_of_order(5), st.data())
def test_product_matches_schoolbook_loop(a, data):
    b = data.draw(series_at(a.order))
    assert a * b == dense_product(a, b)
    assert a * a == dense_product(a, a)

