"""Products of elementary 2x2 matrices and the second-order linear
recurrence they encode.

The matrix M(c) = [[c, -1], [1, 0]] is the transfer step of the
recurrence v_{i+1} = c_i v_i - v_{i-1}.  For an N-periodic positive
sequence (c_i), every solution is N-periodic exactly when the product
M(c_1) ... M(c_N) is the identity, and N-antiperiodic exactly when it
is minus the identity.  The tuples achieving plus or minus identity
are precisely the quiddities of 3-periodic dissections of the N-gon,
which ``verify_monodromy_correspondence`` checks at desk scale.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence

from . import formulas
from .core import DomainError, ResourceLimitError, Value
from .enumeration import CellFilter, _carried_quiddities

# Work refused by the correspondence check, on a 2-core machine:
# coefficient tuples classified (270-280k/s, each product stepped on
# four integers) and 3-periodic dissections enumerated with their
# quiddities (250-300k/s, read off the packed cells of the enumerator's
# log).  The dissection cap admits N = 12 (30,083, 0.10-0.12 s; ``modular
# verify --n 12 --entry-bound 2`` takes 0.4-0.6 s) and refuses N = 13
# (114,660).  Raising it would move refusals that the CLI contract test
# records.
TUPLE_CAP = 80_000
DISSECTION_CAP = 35_000

PLUS_IDENTITY = "plus_identity"
MINUS_IDENTITY = "minus_identity"
NEITHER = "neither"


class Mat2(Value):
    """2x2 integer matrix (a b; c d)."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def determinant(self) -> int:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


IDENTITY = Mat2(1, 0, 0, 1)
MINUS_ID = Mat2(-1, 0, 0, -1)


def elementary(c: int) -> Mat2:
    """The elementary matrix (c -1; 1 0)."""
    return Mat2(c, -1, 1, 0)


def elementary_product(cs: Sequence[int]) -> Mat2:
    """Left-to-right product of elementary matrices for the given
    positive coefficients."""
    if not cs:
        raise DomainError("elementary product needs at least one coefficient")
    if any(c < 1 for c in cs):
        raise DomainError("coefficients must be positive integers")
    # (a b; c d) (x -1; 1 0) = (a x + b, -a; c x + d, -c), stepped on
    # the four entries, with one Mat2 built at the end
    a, b, c, d = 1, 0, 0, 1
    for x in cs:
        a, b, c, d = a * x + b, -a, c * x + d, -c
    return Mat2(a, b, c, d)


class MonodromyReport(Value):
    """Product matrix of a coefficient tuple plus its classification:
    all recurrence solutions periodic, all antiperiodic, or neither."""

    __slots__ = _fields = ("matrix", "classification")

    def __init__(self, matrix: Mat2, classification: str) -> None:
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "classification", classification)


def classify_monodromy(cs: Sequence[int]) -> MonodromyReport:
    """Whether every solution of v_{i+1} = c_i v_i - v_{i-1} over one
    period of the coefficients is periodic or antiperiodic."""
    matrix = elementary_product(cs)
    if matrix == IDENTITY:
        kind = PLUS_IDENTITY
    elif matrix == MINUS_ID:
        kind = MINUS_IDENTITY
    else:
        kind = NEITHER
    return MonodromyReport(matrix, kind)


def iterate_recurrence(cs: Sequence[int], v0: int, v1: int) -> tuple[int, int]:
    """(v_N, v_{N+1}) from the initial values (v_0, v_1), stepping the
    recurrence once per coefficient.

    Public library API, kept and tested: nothing in the package calls
    it, since ``elementary_product`` steps the same recurrence on the
    four entries of the product matrix."""
    prev, cur = v0, v1
    for c in cs:
        prev, cur = cur, c * cur - prev
    return prev, cur


def three_periodic_quiddities(n_vertices: int) -> set[tuple[int, ...]]:
    """All distinct quiddities of 3-periodic dissections of the N-gon,
    over every cell count: told apart by the enumerator's packed
    entries, and made a tuple once each."""
    distinct = {entries for _, entries, _
                in _carried_quiddities(n_vertices, None, CellFilter.ell_periodic(3))}
    return set(map(tuple, distinct))


def verify_monodromy_correspondence(
    n_vertices: int,
    entry_bound: int | None = None,
) -> dict[str, object]:
    """Check, at desk scale, that the coefficient tuples whose
    elementary product is plus or minus the identity are exactly the
    quiddities of 3-periodic dissections of the N-gon.

    The forward direction sweeps every such quiddity.  The converse
    sweeps all tuples with entries in [1, entry_bound] (default N-2,
    since no quiddity entry can exceed the cell count); completeness
    beyond the bound is not claimed.  Both sweeps are sized up front,
    the dissections by their exact count, and refused over their caps.
    """
    if n_vertices < 3:
        raise DomainError(f"polygon needs at least 3 vertices, got {n_vertices}")
    if entry_bound is None:
        entry_bound = max(1, n_vertices - 2)
    if entry_bound < 1:
        raise DomainError(f"entry bound must be at least 1, got {entry_bound}")
    # past TUPLE_CAP.bit_length() factors of at least 2 the cap is
    # exceeded, so the power never gets large
    if entry_bound ** min(n_vertices, TUPLE_CAP.bit_length()) > TUPLE_CAP:
        raise ResourceLimitError(
            f"{entry_bound}^{n_vertices} tuples exceed the cap of {TUPLE_CAP}"
        )
    dissections = 0
    for m in range(1, n_vertices - 1):  # stops at the first term past the cap
        dissections += formulas.ell_periodic_count(n_vertices - 2, m, 3)
        if dissections > DISSECTION_CAP:
            raise ResourceLimitError(
                f"the {n_vertices}-gon has over {DISSECTION_CAP} 3-periodic "
                f"dissections, the cap of the forward sweep"
            )

    quiddities = three_periodic_quiddities(n_vertices)
    forward_failures = [
        list(q) for q in sorted(quiddities)
        if classify_monodromy(q).classification == NEITHER
    ]

    identity_tuples = set()
    for cs in itertools.product(range(1, entry_bound + 1), repeat=n_vertices):
        if classify_monodromy(cs).classification != NEITHER:
            identity_tuples.add(cs)
    bounded_quiddities = {
        q for q in quiddities if all(c <= entry_bound for c in q)
    }
    converse_extra = sorted(identity_tuples - bounded_quiddities)
    converse_missing = sorted(bounded_quiddities - identity_tuples)

    return {
        "forward_checked": len(quiddities),
        "forward_failures": forward_failures,
        "converse_checked": entry_bound ** n_vertices,
        "converse_missing": [list(t) for t in converse_missing],
        "converse_extra": [list(t) for t in converse_extra],
    }
