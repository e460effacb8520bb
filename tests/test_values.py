"""Value semantics of the package's record classes: each one's repr,
equality, hash, pickling, copying and pattern matching follow its
fields, and its fields cannot be assigned or deleted."""
from __future__ import annotations

import copy
import pickle

import pytest

from quiddity.contfrac import HirzebruchJungContinuedFraction, RegularContinuedFraction
from quiddity.core import Dissection, DomainError, Quiddity, cells
from quiddity.enumeration import CellFilter, count_dissections, enumerate_dissections
from quiddity.modular import Mat2, MonodromyReport
from quiddity.surgery import SurgeryMove
from quiddity.verification import CheckResult


# (value, its fields in order, its exact repr)
FROZEN = [
    (Dissection(5, ((2, 0),)), (5, ((0, 2),)), "Dissection(n_vertices=5, chords=((0, 2),))"),
    (Quiddity((2, 1, 2, 1, 1)), ((2, 1, 2, 1, 1),), "Quiddity(entries=(2, 1, 2, 1, 1))"),
    (CellFilter("sizes", sizes=frozenset({3, 4})), ("sizes", None, frozenset({3, 4})),
     "CellFilter(kind='sizes', ell=None, sizes=frozenset({3, 4}))"),
    (SurgeryMove(0, (0, 1, 3, 4, 5, 7), ((1, 3), (5, 7)), ((1, 7), (3, 5))),
     (0, (0, 1, 3, 4, 5, 7), ((1, 3), (5, 7)), ((1, 7), (3, 5))),
     "SurgeryMove(cell_index=0, cell=(0, 1, 3, 4, 5, 7), removed=((1, 3), (5, 7)), "
     "added=((1, 7), (3, 5)))"),
    (Mat2(1, -1, 1, 0), (1, -1, 1, 0), "Mat2(a=1, b=-1, c=1, d=0)"),
    (MonodromyReport(Mat2(-1, 0, 0, -1), "minus_identity"),
     (Mat2(-1, 0, 0, -1), "minus_identity"),
     "MonodromyReport(matrix=Mat2(a=-1, b=0, c=0, d=-1), classification='minus_identity')"),
    (RegularContinuedFraction((2, 1)), ((2, 1),), "RegularContinuedFraction(terms=(2, 1))"),
    (HirzebruchJungContinuedFraction((3, 2)), ((3, 2),),
     "HirzebruchJungContinuedFraction(terms=(3, 2))"),
]
CASES = FROZEN + [
    (CheckResult("series-solver", True, "five equations"), ("series-solver", True, "five equations"),
     "CheckResult(name='series-solver', passed=True, detail='five equations')"),
]
IDS = [type(value).__name__ for value, _, _ in CASES]


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_repr_names_every_field_in_order(value, fields, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_equal_to_the_same_fields_of_the_same_class_only(value, fields, text):
    cls = type(value)
    twin = cls(*fields)
    assert twin == value and not twin != value
    assert twin is not value
    assert value != fields  # the field tuple is another class
    assert value != object()


def test_one_field_values_of_two_classes_differ():
    assert Quiddity((2, 1)) != RegularContinuedFraction((2, 1))
    assert RegularContinuedFraction((2, 2)) != HirzebruchJungContinuedFraction((2, 2))


@pytest.mark.parametrize("value,fields,text", FROZEN, ids=IDS[:len(FROZEN)])
def test_hash_is_that_of_the_field_tuple(value, fields, text):
    assert hash(value) == hash(fields)
    assert len({value, type(value)(*fields)}) == 1


@pytest.mark.parametrize("value,fields,text", FROZEN, ids=IDS[:len(FROZEN)])
def test_fields_cannot_be_assigned_or_deleted(value, fields, text):
    for name, old in zip(type(value).__match_args__, fields):
        with pytest.raises(AttributeError):
            setattr(value, name, old)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == old


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_pickle_and_copies_give_an_equal_value(value, fields, text):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == text


@pytest.mark.parametrize("value,fields,text", CASES, ids=IDS)
def test_match_args_are_the_fields_in_order(value, fields, text):
    names = type(value).__match_args__
    assert tuple(getattr(value, name) for name in names) == fields
    match value:
        case Dissection(n, chords):
            assert (n, chords) == fields
        case Mat2(a, b, c, d):
            assert (a, b, c, d) == fields
        case _:
            assert not isinstance(value, (Dissection, Mat2))


def test_values_build_by_keyword():
    assert Dissection(n_vertices=5, chords=((0, 2),)) == Dissection(5, ((2, 0),))
    assert CellFilter() == CellFilter.all_cells() == CellFilter(kind="all")
    assert CellFilter(kind="ell", ell=3) == CellFilter.ell_periodic(3)
    assert CellFilter(sizes=frozenset({4}), kind="sizes") == CellFilter.equal_size(4)
    assert CheckResult("x", False) == CheckResult(name="x", passed=False, detail="")


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "ell"}, "period must be at least 1, got None"),
    ({"kind": "ell", "ell": 0}, "period must be at least 1, got 0"),
    ({"kind": "sizes"}, "size set must be nonempty"),
    ({"kind": "sizes", "sizes": frozenset()}, "size set must be nonempty"),
    ({"kind": "sizes", "sizes": frozenset({2, 3})}, "cell sizes must be at least 3"),
    ({"kind": "squares"}, "unknown filter kind 'squares'"),
    ({"kind": "all", "ell": 2}, "filter kind 'all' takes no ell, got ell=2"),
    ({"kind": "sizes", "ell": 3, "sizes": frozenset({3})},
     "filter kind 'sizes' takes no ell, got ell=3"),
    ({"kind": "all", "sizes": frozenset({3})},
     "filter kind 'all' takes no sizes, got sizes=frozenset({3})"),
    ({"kind": "ell", "ell": 3, "sizes": frozenset({5})},
     "filter kind 'ell' takes no sizes, got sizes=frozenset({5})"),
    # a non-integer is refused here, not by a later range()
    ({"kind": "ell", "ell": 2.5}, "period must be an integer, got 2.5"),
    ({"kind": "ell", "ell": "3"}, "period must be an integer, got '3'"),
    ({"kind": "sizes", "sizes": {3, 3.5}}, "cell size must be an integer, got 3.5"),
])
def test_cell_filter_refuses_bad_fields(kwargs, message):
    with pytest.raises(DomainError) as info:
        CellFilter(**kwargs)
    assert str(info.value) == message


# (a value built from a mutable collection, the same value built from
# a tuple or frozenset)
MUTABLE_BUILT = [
    (CellFilter("sizes", sizes={3, 4}), CellFilter.size_set(frozenset({3, 4}))),
    (Quiddity([2, 1, 2, 1, 1]), Quiddity((2, 1, 2, 1, 1))),
    (RegularContinuedFraction([2, 1]), RegularContinuedFraction((2, 1))),
    (HirzebruchJungContinuedFraction([3, 2]), HirzebruchJungContinuedFraction((3, 2))),
    (SurgeryMove(0, [0, 1, 3, 4, 5, 7], [(1, 3), (5, 7)], [(1, 7), (3, 5)]),
     SurgeryMove(0, (0, 1, 3, 4, 5, 7), ((1, 3), (5, 7)), ((1, 7), (3, 5)))),
]


@pytest.mark.parametrize("value,twin", MUTABLE_BUILT,
                         ids=[type(value).__name__ for value, _ in MUTABLE_BUILT])
def test_collection_fields_are_stored_immutably(value, twin):
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    for name in type(value).__match_args__:
        assert type(getattr(value, name)) is type(getattr(twin, name))


class _Three:
    """An integer type that is not int, as numpy's are."""

    def __index__(self):
        return 3


def test_filter_fields_are_stored_as_ints():
    assert type(CellFilter.ell_periodic(_Three()).ell) is int
    assert CellFilter.ell_periodic(_Three()) == CellFilter.ell_periodic(3)
    assert CellFilter.size_set([_Three(), 4]) == CellFilter.size_set({3, 4})


def test_a_filter_built_from_a_set_keeps_no_view_of_it():
    sizes = {3, 4}
    filt = CellFilter("sizes", sizes=sizes)
    sizes.add(5)
    assert list(filt.allowed_sizes_upto(8)) == [3, 4]
    # the walk keys its tables by the filter, so the filter must hash
    assert sum(1 for _ in enumerate_dissections(6, 3, filt)) == count_dissections(6, 3, filt) == 21


def test_copies_and_pickles_of_a_dissection_are_validated_again():
    # a dissection is rebuilt from its fields through its checks, and
    # the cells kept on it are not carried along
    crossing = Dissection._trusted(4, [(0, 2), (1, 3)])
    for rebuild in (copy.copy, copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))):
        with pytest.raises(DomainError, match="chords 0-2 and 1-3 cross"):
            rebuild(crossing)
    d = Dissection(6, ((0, 2), (3, 5)))
    assert len(cells(d)) == 3
    assert getattr(pickle.loads(pickle.dumps(d)), "_cells", None) is None


def test_check_result_is_immutable_and_hashable():
    # the suite's result is a value like the others (it was a mutable,
    # unhashable record before)
    result = CheckResult("monodromy", False, "converse failed at N=7")
    assert hash(result) == hash(("monodromy", False, "converse failed at N=7"))
    with pytest.raises(AttributeError):
        result.passed = True
    with pytest.raises(AttributeError):
        del result.detail
    assert result.line() == "FAIL monodromy — converse failed at N=7"
