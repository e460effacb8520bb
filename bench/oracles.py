"""Output oracles for the benchmark, independent of the code it times.

Nothing here imports ``quiddity``.  Dissections are read from their
``N:i-j,...`` text, cells are found by cutting the polygon along one
chord at a time (the package walks faces), quiddities come from chord
degrees, dissection counts from the composition formula

    D_K(n, m) = C(n+m, m) / (n+1) * #{compositions of n into m parts in K}

(Przytycki-Sikora; K = {t-2 : cell size t allowed}, for the (n+2)-gon),
which the package does not use, and continued fractions and 2x2
products from ``fractions.Fraction`` and plain integer tuples.

``check(op, result)`` returns ``None`` when an op's outcome is right,
else a one-line reason.
"""
from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Optional

# ---------------------------------------------------------------- dissections


class OracleError(ValueError):
    """Output that is not even well formed."""


def parse(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``N:i-j,...`` to (N, sorted chords); rejects anything that is not
    a canonical dissection: chords out of range, edges, duplicates,
    crossings or an unsorted chord list."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise OracleError(f"no ':' in {text!r}")
    n = int(head)
    chords = []
    for token in rest.split(",") if rest else ():
        i, j = (int(x) for x in token.split("-"))
        if not (0 <= i < j < n) or j - i < 2 or (i, j) == (0, n - 1):
            raise OracleError(f"bad chord {token} in {text!r}")
        chords.append((i, j))
    if chords != sorted(set(chords)):
        raise OracleError(f"chords not sorted and distinct in {text!r}")
    for a, (p, q) in enumerate(chords):
        for r, s in chords[a + 1:]:
            if len({p, q, r, s}) == 4 and (p < r < q) != (p < s < q):
                raise OracleError(f"crossing chords in {text!r}")
    return n, tuple(chords)


def fmt(n: int, chords) -> str:
    return f"{n}:" + ",".join(f"{i}-{j}" for i, j in sorted(chords))


def chord_degree_quiddity(n: int, chords) -> tuple[int, ...]:
    """1 + number of chords at each vertex."""
    q = [1] * n
    for i, j in chords:
        q[i] += 1
        q[j] += 1
    return tuple(q)


def cells_by_splitting(n: int, chords) -> list[tuple[int, ...]]:
    """Counterclockwise vertex cycles of the cells, each rotated to its
    smallest vertex, sorted by (first vertex, size, cycle)."""
    pieces = [(list(range(n)), list(chords))]
    out = []
    while pieces:
        boundary, inside = pieces.pop()
        if not inside:
            k = boundary.index(min(boundary))
            out.append(tuple(boundary[k:] + boundary[:k]))
            continue
        (a, b), rest = inside[0], inside[1:]
        ia, ib = sorted((boundary.index(a), boundary.index(b)))
        side = boundary[ia:ib + 1]
        members = set(side)
        first = [c for c in rest if c[0] in members and c[1] in members]
        pieces.append((side, first))
        pieces.append((boundary[ib:] + boundary[:ia + 1], [c for c in rest if c not in first]))
    return sorted(out, key=lambda c: (c[0], len(c), c))


# ------------------------------------------------------------------- counting


def size_filter(argv_flags: dict) -> Callable[[int], bool]:
    """The cell-size predicate selected by ``--ell`` / ``--sizes``."""
    if argv_flags.get("--ell") is not None:
        ell = int(argv_flags["--ell"])
        return lambda t: t >= 3 and t % ell == 3 % ell
    if argv_flags.get("--sizes") is not None:
        sizes = {int(x) for x in argv_flags["--sizes"].split(",")}
        return lambda t: t in sizes
    return lambda t: t >= 3


@lru_cache(maxsize=None)
def _compositions(n: int, m: int, parts: tuple[int, ...]) -> int:
    if m == 0:
        return 1 if n == 0 else 0
    return sum(_compositions(n - p, m - 1, parts) for p in parts if p <= n)


def dissection_count(n_vertices: int, m: int, allowed: Callable[[int], bool]) -> int:
    """Dissections of the N-gon into m cells whose sizes pass ``allowed``."""
    n = n_vertices - 2
    parts = tuple(t - 2 for t in range(3, n_vertices + 1) if allowed(t))
    value, rem = divmod(comb(n + m, m) * _compositions(n, m, parts), n + 1)
    if rem:
        raise AssertionError(f"composition count not integral at N={n_vertices}, m={m}")
    return value


def catalan(n: int) -> int:
    """Segner's recurrence C(k+1) = sum C(i) C(k-i)."""
    c = [1]
    for k in range(n):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c[n]


def quiddity_count_3p(n: int, m: int) -> int:
    """Distinct quiddities of 3-periodic dissections of the (n+2)-gon
    into m cells (the paper's closed sum, with the 2-gon at (0, 0))."""
    if n == 0:
        return 1 if m == 0 else 0
    if m == 0 or m > n or (n - m) % 3:
        return 0
    total = Fraction(0)
    for s in range((n - m) // 3 + 1):
        binom = 1 if s == 0 else comb(m + s - 2, s)
        total += Fraction(n - m - 3 * s + 2, n - s + 1) * binom * comb(n + m - s - 1, m - 1)
    if total.denominator != 1:
        raise AssertionError(f"quiddity count at ({n}, {m}) is not integral")
    return total.numerator


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(*polys: list[int]) -> list[int]:
    out = [0] * max(len(p) for p in polys)
    for p in polys:
        for i, x in enumerate(p):
            out[i] += x
    return out


def p_series(order: int) -> dict[tuple[int, int], int]:
    """Coefficients of P = 1 + w z P^2 / (1 - z^3 P^2), solved order by
    order from P = 1 - z^3 P^2 + w z P^2 + z^3 P^3."""
    p: list[list[int]] = []
    p2: list[list[int]] = []
    p3: list[list[int]] = []
    for n in range(order + 1):
        terms = [[1 if n == 0 else 0]]
        if n >= 1:
            terms.append([0] + p2[n - 1])
        if n >= 3:
            terms.append([-c for c in p2[n - 3]])
            terms.append(p3[n - 3])
        p.append(_poly_add(*terms))
        p2.append(_poly_add(*(_poly_mul(p[i], p[n - i]) for i in range(n + 1))))
        p3.append(_poly_add(*(_poly_mul(p[i], p2[n - i]) for i in range(n + 1))))
    return {(n, m): c for n, row in enumerate(p) for m, c in enumerate(row) if c}


def series_expected(equation: str, order: int, ell: Optional[int]) -> dict[tuple[int, int], int]:
    """Nonzero coefficients z^n w^m the named equation must produce."""
    if equation == "p":
        return p_series(order)
    if equation == "catalan":
        return {(n, 0): catalan(n) for n in range(order + 1)}
    allowed = {
        "kirkman-cayley": lambda t: t >= 3,
        "ell-periodic": lambda t: t >= 3 and t % (ell or 1) == 3 % (ell or 1),
        "tri-quad": lambda t: t in (3, 4),
    }
    out = {(0, 0): 1}
    for n in range(1, order + 1):
        for m in range(1, n + 1):
            if equation == "q":
                value = quiddity_count_3p(n, m)
            else:
                value = dissection_count(n + 2, m, allowed[equation])
            if value:
                out[(n, m)] = value
    return out


# ----------------------------------------------------------- surgery (harness)


def _cell_edges(cell):
    return [(cell[k], cell[(k + 1) % len(cell)]) for k in range(len(cell))]


def surgery_moves(n: int, chords) -> list[tuple[int, tuple, tuple, bool]]:
    """Every legal surgery as (cell index, removed, added, opening).

    A surgery removes two chords on the boundary of one cell that are
    at least two cell edges apart on both sides and adds the other
    non-crossing pairing of their endpoints.  It is opening when one
    removed chord is the cell's exit chord toward the cell holding the
    polygon edge (0, N-1)."""
    cells = cells_by_splitting(n, chords)
    chord_set = set(chords)
    owners: dict[tuple[int, int], list[int]] = {}
    for idx, cell in enumerate(cells):
        for u, v in _cell_edges(cell):
            owners.setdefault((min(u, v), max(u, v)), []).append(idx)
    root = next(i for i, c in enumerate(cells) if (n - 1, 0) in _cell_edges(c))
    exit_chord = {root: None}
    todo = [root]
    while todo:
        cur = todo.pop()
        for u, v in _cell_edges(cells[cur]):
            edge = (min(u, v), max(u, v))
            if edge in chord_set:
                for other in owners[edge]:
                    if other not in exit_chord:
                        exit_chord[other] = edge
                        todo.append(other)
    moves = []
    for idx, cell in enumerate(cells):
        edges = _cell_edges(cell)
        size = len(cell)
        spots = [k for k, (u, v) in enumerate(edges) if (min(u, v), max(u, v)) in chord_set]
        for x, i in enumerate(spots):
            for j in spots[x + 1:]:
                if j - i - 1 < 2 or size - (j - i) - 1 < 2:
                    continue
                (a, b), (c, d) = edges[i], edges[j]
                removed = tuple(sorted(((min(a, b), max(a, b)), (min(c, d), max(c, d)))))
                added = tuple(sorted(((min(a, d), max(a, d)), (min(b, c), max(b, c)))))
                moves.append((idx, removed, added, exit_chord[idx] in removed))
    return moves


def apply_move(chords, removed, added) -> tuple[tuple[int, int], ...]:
    return tuple(sorted([c for c in chords if c not in removed] + list(added)))


def is_3periodic(n: int, chords) -> bool:
    return all(len(c) % 3 == 0 for c in cells_by_splitting(n, chords))


def moves_3p(n: int, chords) -> list[tuple[int, tuple, tuple, bool]]:
    """Surgeries whose result is again 3-periodic."""
    return [mv for mv in surgery_moves(n, chords)
            if is_3periodic(n, apply_move(chords, mv[1], mv[2]))]


def is_maximally_open(n: int, chords) -> bool:
    return not any(mv[3] for mv in moves_3p(n, chords))


# --------------------------------------------------------- continued fractions


def eval_regular(terms) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


def eval_hj(terms) -> Fraction:
    value = Fraction(terms[-1])
    for c in reversed(terms[:-1]):
        value = c - 1 / value
    return value


def hj_terms(value: Fraction) -> list[int]:
    terms = []
    while True:
        c = -(-value.numerator // value.denominator)
        terms.append(c)
        if c == value:
            return terms
        value = 1 / (c - value)


def mat_product(cs) -> list[list[int]]:
    a, b, c, d = 1, 0, 0, 1
    for x in cs:  # right-multiply by (x -1; 1 0)
        a, b, c, d = a * x + b, -a, c * x + d, -c
    return [[a, b], [c, d]]


# ------------------------------------------------------------------ op checks


def flags(argv) -> tuple[list[str], dict[str, Optional[str]]]:
    """Positional words and ``--flag value`` pairs (bare flags map to None)."""
    words, opts = [], {}
    k = 0
    while k < len(argv):
        if argv[k].startswith("--"):
            if k + 1 < len(argv) and not argv[k + 1].startswith("--"):
                opts[argv[k]] = argv[k + 1]
                k += 2
            else:
                opts[argv[k]] = None
                k += 1
        else:
            words.append(argv[k])
            k += 1
    return words, opts


def _value(out: str, opts: dict) -> int:
    text = json.loads(out)["value"] if "--json" in opts else out.rstrip("\n")
    return int(text)


def _check_family_member(text: str, n_vertices: int, m: int, allowed) -> tuple[int, ...]:
    n, chords = parse(text)
    if n != n_vertices or len(chords) != m - 1:
        raise OracleError(f"{text} is not an {n_vertices}-gon with {m} cells")
    if not all(allowed(len(c)) for c in cells_by_splitting(n, chords)):
        raise OracleError(f"{text} has a cell size outside the filter")
    return chord_degree_quiddity(n, chords)


def _check_enumerate(words, opts, out):
    n_vertices, m = int(opts["--n"]), int(opts["--m"])
    allowed = size_filter(opts)
    lines = out.splitlines()
    want = dissection_count(n_vertices, m, allowed)
    if len(lines) != want:
        return f"{len(lines)} lines, closed form {want}"
    if len(set(lines)) != len(lines):
        return "duplicate dissections"
    for line in lines:
        _check_family_member(line, n_vertices, m, allowed)
    return None


def _check_quiddities(words, opts, out):
    n_vertices, m = int(opts["--n"]), int(opts["--m"])
    got = _value(out, opts)
    if opts.get("--ell") == "3":
        want = quiddity_count_3p(n_vertices - 2, m)
    elif opts.get("--sizes") and "," not in opts["--sizes"]:
        # equal-size dissections are determined by their quiddities
        want = dissection_count(n_vertices, m, size_filter(opts))
    else:
        raise AssertionError("no closed form for this quiddity count")
    return None if got == want else f"{got} != {want}"


def _check_classes(words, opts, out):
    n_vertices, m = int(opts["--n"]), int(opts["--m"])
    allowed = size_filter(opts)
    table = json.loads(out)
    members = [d for ds in table.values() for d in ds]
    want = dissection_count(n_vertices, m, allowed)
    if len(members) != want or len(set(members)) != want:
        return f"{len(members)} members ({len(set(members))} distinct), closed form {want}"
    for key, ds in table.items():
        if ds != sorted(ds):
            return f"class {key} not sorted"
        for d in ds:
            if ",".join(map(str, _check_family_member(d, n_vertices, m, allowed))) != key:
                return f"{d} filed under {key}"
    if opts.get("--ell") == "3" and len(table) != quiddity_count_3p(n_vertices - 2, m):
        return f"{len(table)} classes, closed form {quiddity_count_3p(n_vertices - 2, m)}"
    return None


def _check_verify_all(words, opts, out):
    lines = out.splitlines()
    if len(lines) != 11 or not all(line.startswith("PASS ") for line in lines):
        return "verify-all did not pass every check"
    return None


def _check_count(words, opts, out):
    got = _value(out, opts)
    want = dissection_count(int(opts["--n"]), int(opts["--m"]), size_filter(opts))
    return None if got == want else f"{got} != {want}"


def _formula(name: str, a: list[int]) -> int:
    if name == "catalan":
        return catalan(a[0])
    if name == "quiddity-3p":
        return quiddity_count_3p(a[0], a[1])
    allowed = {
        "kirkman-cayley": lambda t: t >= 3,
        "fuss": lambda t: t == a[0] // a[1] + 2,
        "tri-quad": lambda t: t in (3, 4),
        "ell-periodic": lambda t: t >= 3 and t % a[-1] == 3 % a[-1],
    }[name]
    return dissection_count(a[0] + 2, a[1], allowed)


def _check_formula(words, opts, out):
    got = _value(out, opts)
    want = _formula(words[1], [int(x) for x in words[2:]])
    return None if got == want else f"{got} != {want}"


def _check_table(words, opts, out):
    max_n = int(opts["--max-n"])
    rows = out.rstrip("\n").split("\n")
    want = ["n,m,value"] + [
        f"{n},{m},{quiddity_count_3p(n, m)}"
        for n, m in sorted((n, n - k) for k in (0, 3, 6, 9, 12) for n in range(max_n + 1)
                           if n - k >= 1 or n == k == 0)
    ]
    return None if rows == want else "table rows differ from the closed form"


def _check_series(words, opts, out):
    order = int(opts.get("--order") or 12)
    ell = int(opts["--ell"]) if opts.get("--ell") else None
    got = {(t["n"], t["m"]): int(t["coeff"]) for t in json.loads(out)}
    want = series_expected(words[1], order, ell)
    if got != want:
        bad = sorted(set(got.items()) ^ set(want.items()))[0]
        return f"coefficient z^{bad[0][0]} w^{bad[0][1]} differs"
    return None


def _check_of(words, opts, out):
    n, chords = parse(words[1])
    want = list(chord_degree_quiddity(n, chords))
    got = json.loads(out)["quiddity"] if "--json" in opts else \
        [int(x) for x in out.rstrip("\n").split(",")]
    return None if got == want else f"{got} != {want}"


def _terms(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _check_cf(words, opts, out):
    action = words[1]
    if action == "eval":
        value = eval_regular(_terms(opts["--regular"])) if opts.get("--regular") \
            else eval_hj(_terms(opts["--hj"]))
        want = json.dumps({"r": value.numerator, "s": value.denominator}, sort_keys=True,
                          separators=(",", ":")) if "--json" in opts \
            else f"{value.numerator}/{value.denominator}"
        return None if out == want + "\n" else f"{out!r} != {want!r}"
    terms = _terms(words[2])
    hj = hj_terms(eval_regular(terms))
    if action == "convert":
        return None if out == ",".join(map(str, hj)) + "\n" else "wrong minus-sign terms"
    strip = json.loads(out)
    n, chords = parse(strip["dissection"])
    if n != sum(terms) + 2 or len(chords) != n - 3:
        return "strip is not a triangulation of the right polygon"
    q = chord_degree_quiddity(n, chords)
    tops = strip["top_vertices"]
    if len(tops) != 1 + sum(terms[1::2]) or strip["top_quiddity"] != [q[v] for v in tops]:
        return "strip top quiddity does not match the chords"
    return None if strip["top_quiddity"][:-1] == hj else "strip top row is not the minus-sign terms"


def _check_modular(words, opts, out):
    cs = _terms(words[2])
    matrix = mat_product(cs)
    got = json.loads(out)
    if got["matrix"] != matrix:
        return "wrong product"
    if words[1] == "classify":
        kind = {((1, 0), (0, 1)): "plus_identity", ((-1, 0), (0, -1)): "minus_identity"}.get(
            tuple(map(tuple, matrix)), "neither")
        if got["classification"] != kind:
            return f"classified {got['classification']}, want {kind}"
    return None


def _check_surgery(words, opts, out):
    action = words[1]
    n, chords = parse(words[2])
    q = chord_degree_quiddity(n, chords)
    if action == "moves":
        want = sorted((i, rem, add) for i, rem, add, _ in moves_3p(n, chords))
        got = sorted((mv["cell"],
                      tuple(tuple(map(int, c.split("-"))) for c in mv["remove"]),
                      tuple(tuple(map(int, c.split("-"))) for c in mv["add"]))
                     for mv in map(json.loads, out.splitlines()))
        return None if got == want else "move list differs"
    if action == "apply":
        removed = tuple(sorted(tuple(map(int, c.split("-"))) for c in opts["--remove"].split(",")))
        added = next(add for _, rem, add, _ in surgery_moves(n, chords) if rem == removed)
        want = fmt(n, apply_move(chords, removed, added))
        return None if out == want + "\n" else f"{out.strip()} != {want}"
    if action == "canon":
        rn, rc = parse(out.rstrip("\n"))
        if rn != n or chord_degree_quiddity(rn, rc) != q:
            return "canonical form changed the quiddity"
        if not is_3periodic(rn, rc) or not is_maximally_open(rn, rc):
            return "canonical form is not a maximally open 3-periodic dissection"
        return None
    cls = json.loads(out)
    members = cls["members"]
    if cls["quiddity"] != ",".join(map(str, q)) or words[2] not in members:
        return "class quiddity or membership wrong"
    if members != sorted(set(members)):
        return "class members not sorted and distinct"
    opened = []
    for text in members:
        mn, mc = parse(text)
        if chord_degree_quiddity(mn, mc) != q or not is_3periodic(mn, mc):
            return f"member {text} is not a 3-periodic dissection with the class quiddity"
        if is_maximally_open(mn, mc):
            opened.append(text)
    if opened != [cls["maximally_open"]]:
        return f"{len(opened)} maximally open members, want exactly the reported one"
    return None


_CHECKS = {
    "enumerate": _check_enumerate, "quiddities": _check_quiddities,
    "classes": _check_classes, "verify-all": _check_verify_all,
    "count": _check_count, "formula": _check_formula, "table": _check_table,
    "series": _check_series, "of": _check_of, "cf": _check_cf,
    "modular": _check_modular, "surgery": _check_surgery,
}


def check(argv, expect: int, code: Optional[int], out: str, err: str) -> Optional[str]:
    """None when the op ended as it must, else why not.  ``code`` is
    None when ``main`` raised."""
    if code is None:
        return "raised out of main: " + (err.strip().splitlines() or ["?"])[-1]
    if code != expect:
        return f"exit {code}, want {expect}"
    if expect:
        if out or not any("error:" in line for line in err.splitlines()):
            return "refusal without an 'error:' line on stderr"
        return None
    words, opts = flags(argv)
    try:
        return _CHECKS[words[0]](words, opts, out)
    except (OracleError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return f"malformed output: {exc!r}"
