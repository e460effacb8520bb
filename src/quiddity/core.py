"""Polygon dissections: parsing, cells, quiddities, dihedral action.

A dissection of a convex N-gon is a set of pairwise non-crossing
diagonals (chords).  Vertices are labeled 0..N-1 counterclockwise and
every chord is stored as a pair (i, j) with i < j, the chord list
sorted lexicographically, so equal dissections have equal
representations.

The quiddity of a dissection is the length-N vector whose i-th entry
counts the cells touching vertex i.

Non-crossing chords are nested intervals of 0..N-1, so validation and
cell extraction are each one stack sweep over the chords, each ordered
by C-level sorts: validation opens the chords by left end, cell
extraction closes them by right end and pushes the vertices between
right ends in one step.  A dissection's cells are swept once, by the
first call that needs them, and kept on the object (see :func:`cells`).

Every value class of the package derives from :class:`Value`, a plain
base that, unlike a dataclass decorator, generates no code at import.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from operator import attrgetter, itemgetter


class DomainError(ValueError):
    """Invalid input to a library operation."""


class ParseError(DomainError):
    """Malformed dissection text."""


class ResourceLimitError(DomainError):
    """A computation was refused because it exceeds a configured cap."""


Chord = tuple[int, int]

# Largest vertex count that dissection text may name.  Cells and chord
# degrees take lists of N entries, so a larger N is refused before they
# are built: ``of 1000000:`` takes 0.23 s and 105 MB on a 2-core machine.
PARSE_N_CAP = 1_000_000


class Value:
    """An immutable record of the fields named in ``_fields``.

    A subclass lists its fields in ``_fields`` and in ``__slots__``, and
    its own ``__init__`` validates them and sets each with
    ``object.__setattr__``.  Equality (only with the same class), the
    hash (that of the field tuple), ``repr``, ``__match_args__`` and
    pickling and copying (through ``__init__``, so re-validated) follow
    the fields, as they do for a frozen dataclass; assigning or deleting
    an attribute raises ``AttributeError``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # _astuple(x) is x's field tuple; attrgetter of one name gives
        # the bare value, so one field is wrapped
        get = attrgetter(*cls._fields)
        cls._astuple = staticmethod(get if len(cls._fields) > 1 else lambda x: (get(x),))
        cls.__match_args__ = cls._fields

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Dissection(Value):
    """A convex polygon together with a non-crossing set of diagonals.

    The chords are normalized and validated on construction; ``_cells``
    is the slot where :func:`cells` keeps the swept cells."""

    _fields = ("n_vertices", "chords")
    __slots__ = _fields + ("_cells",)

    def __init__(self, n_vertices: int, chords: Iterable[Chord]) -> None:
        n = n_vertices
        if n < 3:
            raise DomainError(f"polygon needs at least 3 vertices, got {n}")
        normalized = []
        last = n - 1
        for i, j in chords:
            if i > j:
                i, j = j, i
            if not 0 <= i < j <= last:
                raise DomainError(f"chord {i}-{j} out of range for an {n}-gon")
            if not 2 <= j - i < last:  # (0, N-1) is the one edge spanning N-1
                raise DomainError(f"chord {i}-{j} is a polygon edge, not a diagonal")
            normalized.append((i, j))
        # Sweep by left end, longest first, keeping the open chords on a
        # stack: a chord crosses iff it ends beyond the innermost one,
        # whose right end is q.  Two stable sorts give that order, right
        # ends descending and then left ends ascending; the sentinel
        # (-1, N) is never closed, never equal to a chord and never
        # crossed.
        nested = sorted(normalized, key=itemgetter(1), reverse=True)
        nested.sort(key=itemgetter(0))
        open_chords: list[Chord] = [(-1, n)]
        q = n
        for chord in nested:
            i, j = chord
            while q <= i:
                open_chords.pop()
                q = open_chords[-1][1]
            if j >= q:
                if open_chords[-1] == chord:
                    raise DomainError(f"duplicate chord {i}-{j}")
                if j > q:
                    p = open_chords[-1][0]
                    raise DomainError(f"chords {p}-{q} and {i}-{j} cross")
            open_chords.append(chord)
            q = j
        normalized.sort()
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "chords", tuple(normalized))

    @classmethod
    def _trusted(cls, n_vertices: int, chords: Iterable[Chord]) -> "Dissection":
        """A dissection from chords known to be valid, with i < j in
        each: sorts them and skips validation.  For the enumerator only."""
        d = object.__new__(cls)
        object.__setattr__(d, "n_vertices", n_vertices)
        object.__setattr__(d, "chords", tuple(sorted(chords)))
        return d

    def __str__(self) -> str:
        return format_dissection(self)

    def chord_degrees(self) -> list[int]:
        """Number of chords at each vertex, in one pass over the chords."""
        degrees = [0] * self.n_vertices
        for i, j in self.chords:
            degrees[i] += 1
            degrees[j] += 1
        return degrees


class Quiddity(Value):
    """Cell-contact counts per vertex, as an N-tuple."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Iterable[int]) -> None:
        entries = tuple(entries)
        if entries and min(entries) < 1:
            raise DomainError("quiddity entries must be positive")
        object.__setattr__(self, "entries", entries)

    def __str__(self) -> str:
        return ",".join(map(str, self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def _parse_chord(token: str) -> Chord:
    """The ends of an ``i-j`` chord token, in the order written."""
    try:
        i, j = token.split("-")
        return int(i), int(j)
    except ValueError:  # not exactly two ends, or a non-integer end
        raise ParseError(f"bad chord token {token!r}") from None


def parse_dissection(text: str) -> Dissection:
    """Parse ``N:i-j,k-l,...`` into a canonical :class:`Dissection`.

    Chord order (and endpoint order within a chord) in the input is
    irrelevant; the result is always canonical, so formatting a parsed
    string and re-parsing is the identity.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"missing ':' in dissection text {text!r}")
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"bad vertex count {head!r}") from None
    if n > PARSE_N_CAP:
        raise ResourceLimitError(f"vertex count {n} is over the cap of {PARSE_N_CAP}")
    chords = tuple(map(_parse_chord, rest.split(","))) if rest else ()
    try:
        return Dissection(n, chords)
    except ParseError:
        raise
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def format_dissection(d: Dissection) -> str:
    """Canonical text form: ``N:`` plus lexicographically sorted chords."""
    return f"{d.n_vertices}:" + ",".join(f"{i}-{j}" for i, j in d.chords)


def _sweep(d: Dissection) -> list[tuple[int, ...]]:
    """The cells of a dissection as vertex tuples, in the order they
    close.

    One counterclockwise sweep keeps the boundary path not yet closed
    off on a stack, visiting the chords in closing order: right end
    ascending, innermost first.  Each chord (i, j) pushes the vertices
    up to j, closes the cell made of the stack from i up (i is found by
    bisection, as the stack is always ascending), and stays on the
    stack as the edge (i, j); what is left at the end is the base cell,
    on the polygon edge (0, N-1).  The chord closing a cell is its
    (first, last) vertex pair, so the dual tree needs no bookkeeping: a
    chord joins the cell it closes to the cell that has it as an inner
    edge.  Linear in N, plus log N per chord.
    """
    stack: list[int] = []
    raw: list[tuple[int, ...]] = []
    v = 0  # the next vertex to push
    for i, j in sorted(reversed(d.chords), key=itemgetter(1)):
        stack.extend(range(v, j + 1))
        v = j + 1
        p = bisect_left(stack, i)
        raw.append(tuple(stack[p:]))
        del stack[p + 1:-1]
    stack.extend(range(v, d.n_vertices))
    raw.append(tuple(stack))
    return raw


def cells(d: Dissection) -> tuple[tuple[int, ...], ...]:
    """All cells of a dissection, each its vertices in increasing
    (counterclockwise) order, sorted by smallest vertex, then size,
    then vertices, from one stack sweep (``_sweep``).

    The sweep runs once per object: its cells are kept on ``d`` as
    ``_cells``, a slot outside its ``_fields``, so equality, hashing and
    ``repr`` see only the chords.  ``quiddity`` may keep the unsorted
    sweep there first, as a list; this sorts it into a tuple."""
    cs = getattr(d, "_cells", None)
    if type(cs) is not tuple:
        raw = _sweep(d) if cs is None else cs
        # cells with one first vertex close in the order of their last
        # vertex, which is also their vertex order (each one's second
        # vertex is the last of the one before), so two stable sorts
        # with no key tuples give that order
        raw.sort(key=len)
        raw.sort(key=itemgetter(0))
        cs = tuple(raw)
        object.__setattr__(d, "_cells", cs)
    return cs


def quiddity(d: Dissection) -> Quiddity:
    """Cell-contact count of every vertex.

    Computed two independent ways (membership in the cells and chord
    degree) and cross-checked on every call; a mismatch means a bug in
    the cell extraction and raises immediately.  Membership needs no
    cell order, so a dissection not yet swept keeps its unsorted sweep
    for ``cells`` to sort.
    """
    n = d.n_vertices
    cs = getattr(d, "_cells", None)
    if cs is None:
        cs = _sweep(d)
        object.__setattr__(d, "_cells", cs)
    by_membership = [0] * n
    for cell in cs:
        for v in cell:
            by_membership[v] += 1
    by_degree = [1 + deg for deg in d.chord_degrees()]
    if by_membership != by_degree:
        raise AssertionError(
            f"quiddity self-check failed for {d}: {by_membership} vs {by_degree}"
        )
    return Quiddity(by_membership)


def cell_size_profile(d: Dissection) -> tuple[int, ...]:
    """Multiset of cell sizes, as a sorted tuple."""
    return tuple(sorted(map(len, cells(d))))


def is_ell_periodic(d: Dissection, ell: int) -> bool:
    """True iff every cell size is congruent to 3 mod ``ell``."""
    if ell < 1:
        raise DomainError(f"period must be at least 1, got {ell}")
    return all(s % ell == 3 % ell for s in cell_size_profile(d))


def is_size_restricted(d: Dissection, sizes: Iterable[int]) -> bool:
    """True iff every cell size belongs to ``sizes``."""
    allowed = set(sizes)
    return all(s in allowed for s in cell_size_profile(d))


def dihedral_transform(d: Dissection, rotation: int, reflected: bool = False) -> Dissection:
    """Relabel vertices by i -> i + rotation (mod N), optionally
    precomposed with the reflection i -> -i (mod N)."""
    n = d.n_vertices

    def image(v: int) -> int:
        return ((-v if reflected else v) + rotation) % n

    return Dissection(n, tuple((image(i), image(j)) for i, j in d.chords))


def dihedral_orbit(d: Dissection) -> set[Dissection]:
    """All 2N dihedral relabelings of a dissection (as a set)."""
    return {
        dihedral_transform(d, r, f)
        for r in range(d.n_vertices)
        for f in (False, True)
    }
