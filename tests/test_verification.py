"""The oracle suite itself: it passes, and it can fail."""
from __future__ import annotations

import itertools

import pytest

import quiddity.verification as verification
from quiddity import formulas


def test_fast_scope_is_all_green():
    results = verification.run_all("fast")
    assert [r.name for r in results].count("quiddity-table") == 1
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]


def test_bad_scope_rejected():
    with pytest.raises(ValueError):
        verification.run_all("huge")


def test_tampered_formula_is_detected(monkeypatch):
    # the suite must actually be wired to the formulas it claims to test
    monkeypatch.setattr(
        "quiddity.formulas.quiddity_count_3periodic", lambda n, m: 0)
    assert not verification.check_table().passed


def test_tampered_enumeration_is_detected(monkeypatch):
    # drops the first dissection of every N=8 family
    real = verification.enumerate_dissections

    def skewed(n, m=None, cell_filter=verification.CellFilter.all_cells()):
        stream = real(n, m, cell_filter)
        return itertools.islice(stream, 1, None) if n == 8 else stream

    monkeypatch.setattr(verification, "enumerate_dissections", skewed)
    assert not verification.check_dissection_counts(8).passed


def _off_by_one_at(fn, n0, m0):
    return lambda n, m, *rest: fn(n, m, *rest) + (n == n0 and m == m0)


@pytest.mark.parametrize("name", [
    "tri_quad_count",
    # the prefactor every closed form and the generic count share: a
    # check comparing the generic count with the closed forms misses it
    "_prescribed_cells",
])
def test_tampered_closed_form_is_detected(monkeypatch, name):
    monkeypatch.setattr(formulas, name, _off_by_one_at(getattr(formulas, name), 6, 6))
    assert not verification.check_dissection_counts(8).passed


def test_check_lines_are_printable():
    result = verification.check_table()
    assert result.line().startswith("PASS quiddity-table")
