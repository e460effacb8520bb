"""Elementary matrix products, the linear recurrence, and the
quiddity correspondence."""
from __future__ import annotations

import operator
import random
from collections import deque
from functools import reduce

import pytest

from quiddity import DomainError, quiddity
from quiddity.enumeration import enumerate_dissections
from quiddity.modular import (
    IDENTITY,
    MINUS_ID,
    MINUS_IDENTITY,
    NEITHER,
    PLUS_IDENTITY,
    Mat2,
    classify_monodromy,
    elementary,
    elementary_product,
    iterate_recurrence,
    three_periodic_quiddities,
    verify_monodromy_correspondence,
)


def test_single_factor():
    assert elementary_product((1,)) == Mat2(1, -1, 1, 0)


def test_pentagon_fan_gives_minus_identity():
    assert elementary_product((3, 1, 2, 2, 1)) == MINUS_ID
    assert classify_monodromy((3, 1, 2, 2, 1)).classification == MINUS_IDENTITY


def test_octagon_quiddity_gives_plus_identity():
    assert elementary_product((1, 2, 1, 2, 1, 2, 1, 2)) == IDENTITY
    assert classify_monodromy((1, 2, 1, 2, 1, 2, 1, 2)).classification == PLUS_IDENTITY


def test_triple_five_is_neither():
    report = classify_monodromy((5, 5, 5))
    assert report.classification == NEITHER
    assert report.matrix not in (IDENTITY, MINUS_ID)


def test_products_have_determinant_one():
    rng = random.Random(3)
    for _ in range(100):
        cs = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
        assert elementary_product(cs).determinant() == 1


def test_product_matches_the_product_of_elementary_matrices():
    # the oracle multiplies Mat2 factors; the function steps four integers
    rng = random.Random(17)
    for _ in range(300):
        cs = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        assert elementary_product(cs) == reduce(operator.mul, map(elementary, cs), IDENTITY), cs


def test_empty_and_invalid_input_rejected():
    with pytest.raises(DomainError):
        elementary_product(())
    with pytest.raises(DomainError):
        elementary_product((2, 0, 3))


def test_classification_is_cyclic_invariant():
    rng = random.Random(9)
    for _ in range(60):
        cs = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 8)))
        kinds = {
            classify_monodromy(cs[k:] + cs[:k]).classification
            for k in range(len(cs))
        }
        assert len(kinds) == 1


def test_classification_matches_direct_iteration():
    rng = random.Random(17)
    for _ in range(100):
        cs = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
        kind = classify_monodromy(cs).classification
        starts = [(1, 0), (0, 1)]
        finals = [iterate_recurrence(cs, v0, v1) for v0, v1 in starts]
        periodic = all(f == s for f, s in zip(finals, starts))
        antiperiodic = all(f == (-s[0], -s[1]) for f, s in zip(finals, starts))
        if kind == PLUS_IDENTITY:
            assert periodic
        elif kind == MINUS_IDENTITY:
            assert antiperiodic
        else:
            assert not periodic and not antiperiodic


def test_recurrence_example():
    # coefficients (1,1,1) from (v0, v1) = (1, 1): the solution runs
    # 1, 1, 0, -1, -1 and is antiperiodic with period 3
    assert iterate_recurrence((1, 1, 1), 1, 1) == (-1, -1)


def test_smallest_polygon():
    report = verify_monodromy_correspondence(3)
    assert report["forward_checked"] == 1
    assert not report["forward_failures"]
    assert not report["converse_extra"] and not report["converse_missing"]
    assert elementary_product((1, 1, 1)) == MINUS_ID


def test_pentagon_correspondence_is_sharp():
    report = verify_monodromy_correspondence(5, entry_bound=3)
    assert report["forward_checked"] == 5
    assert report["converse_checked"] == 3 ** 5
    assert not report["forward_failures"]
    assert not report["converse_extra"]
    assert not report["converse_missing"]


def test_forward_direction_through_ten_gon():
    for n in range(3, 11):
        for q in three_periodic_quiddities(n):
            assert classify_monodromy(q).classification != NEITHER


def test_triangulation_quiddities_give_minus_identity():
    for n in range(3, 10):
        for d in enumerate_dissections(n, n - 2):
            assert classify_monodromy(quiddity(d).entries).classification \
                == MINUS_IDENTITY


def test_resource_cap():
    with pytest.raises(DomainError):
        verify_monodromy_correspondence(20, entry_bound=18)


def test_some_elementary_factorization_exists_for_sample_matrices():
    # breadth-first search over short products: unimodular generators
    # and a couple of arbitrary matrices all admit a factorization
    targets = {
        Mat2(1, 1, 0, 1),
        Mat2(0, -1, 1, 0),
        Mat2(2, 1, 1, 1),
        Mat2(1, 0, 1, 1),
    }
    found = set()
    frontier = deque([(elementary(c), 1) for c in range(1, 6)])
    seen = set()
    while frontier:
        matrix, depth = frontier.popleft()
        if matrix in targets:
            found.add(matrix)
            if found == targets:
                break
        if depth >= 9 or matrix in seen:
            continue
        seen.add(matrix)
        for c in range(1, 6):
            frontier.append((matrix * elementary(c), depth + 1))
    assert found == targets
